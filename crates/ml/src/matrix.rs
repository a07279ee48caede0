//! Minimal dense row-major `f32` matrix with the operations the models
//! need. No BLAS: the inner loops are written so the compiler can
//! autovectorize (k-inner accumulation over contiguous rows).

/// A dense row-major matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from row slices.
    ///
    /// With no rows the column count is unknowable, so `from_rows(&[])`
    /// yields the degenerate `0×0` matrix. That shape fails the input-dim
    /// assertions of trained models; callers that may hold an empty batch
    /// but know the width should use [`Matrix::empty`] instead. (Every
    /// `predict_batch` impl maps 0 rows to an empty prediction vector —
    /// see the `Regressor` docs.)
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// The canonical empty batch: `0×cols`, no data. Unlike
    /// `from_rows(&[])` this keeps the feature width, so shape checks
    /// against a trained model still line up.
    pub fn empty(cols: usize) -> Self {
        Matrix {
            rows: 0,
            cols,
            data: Vec::new(),
        }
    }

    /// Reshape `self` into the single row `row` (`1×row.len()`), reusing
    /// the existing allocation when capacity suffices.
    ///
    /// This is the buffer-recycling primitive behind the `Regressor::
    /// predict` default: a thread-local `Matrix` is reshaped per call, so
    /// single-row prediction stops allocating once the buffer has warmed
    /// up.
    pub fn copy_from_row(&mut self, row: &[f32]) {
        self.rows = 1;
        self.cols = row.len();
        self.data.clear();
        self.data.extend_from_slice(row);
    }

    /// Reshape `self` into a `rows × cols` zero matrix, reusing the
    /// allocation when capacity suffices.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Entry mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self · other` — (m×k)·(k×n) = m×n.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue; // feature vectors are sparse-ish in zeros
                }
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · other` into a caller-provided output, reusing its
    /// allocation. Same loop structure and therefore bit-identical
    /// results to [`matmul`](Self::matmul); this is the allocation-free
    /// primitive behind the MLP's scratch-buffer forward pass.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        out.rows = self.rows;
        out.cols = other.cols;
        out.data.clear();
        out.data.resize(self.rows * other.cols, 0.0);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue; // feature vectors are sparse-ish in zeros
                }
                let b_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// `self · otherᵀ` — (m×k)·(n×k)ᵀ = m×n.
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b dimension mismatch"
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// `selfᵀ · other` — (m×k)ᵀ·(m×n) = k×n.
    pub fn transpose_a_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_a_matmul dimension mismatch"
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let b_row = other.row(i);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(k);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Select the given rows into a new matrix (mini-batch gather).
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &src) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(src));
        }
        out
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.memory_bytes(), 24);
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m, Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    fn from_rows_of_nothing_is_zero_by_zero() {
        // Documented degenerate shape: no rows means the width is unknown.
        let m = Matrix::from_rows(&[]);
        assert_eq!((m.rows(), m.cols()), (0, 0));
        assert!(m.data().is_empty());
    }

    #[test]
    fn empty_keeps_the_width() {
        let m = Matrix::empty(7);
        assert_eq!((m.rows(), m.cols()), (0, 7));
        assert!(m.data().is_empty());
    }

    #[test]
    fn copy_from_row_reshapes_and_reuses() {
        let mut m = Matrix::zeros(4, 8);
        let cap_before = m.data.capacity();
        m.copy_from_row(&[1.0, 2.0, 3.0]);
        assert_eq!((m.rows(), m.cols()), (1, 3));
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        // The 4×8 allocation is recycled, not reallocated.
        assert_eq!(m.data.capacity(), cap_before);
        m.copy_from_row(&[9.0]);
        assert_eq!((m.rows(), m.cols()), (1, 1));
        assert_eq!(m.get(0, 0), 9.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![58., 64., 139., 154.]));
    }

    #[test]
    fn matmul_transpose_b_equals_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(2, 3, vec![1., 0., 1., 0., 1., 0.]);
        let c = a.matmul_transpose_b(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![4., 2., 10., 5.]));
    }

    #[test]
    fn transpose_a_matmul_matches_manual() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let b = Matrix::from_vec(2, 2, vec![5., 6., 7., 8.]);
        // aᵀ·b = [[1,3],[2,4]]·[[5,6],[7,8]] = [[26,30],[38,44]]
        assert_eq!(
            a.transpose_a_matmul(&b),
            Matrix::from_vec(2, 2, vec![26., 30., 38., 44.])
        );
    }

    #[test]
    fn gather_rows_selects() {
        let m = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let g = m.gather_rows(&[2, 0]);
        assert_eq!(g, Matrix::from_vec(2, 2, vec![5., 6., 1., 2.]));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panics() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
