//! Dense row-major `f64` matrix, built from scratch for the kernels.
//!
//! Deliberately minimal: the kernels need row access, element access, a
//! reference multiply, and deterministic random generation (seeded), not
//! a full linear-algebra library.

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a generator function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "data length must be rows × cols");
        Matrix { rows, cols, data }
    }

    /// Deterministic uniform random matrix in `[-1, 1)`, seeded: a
    /// splitmix64 stream from `seed`, each draw's top 53 bits scaled to
    /// `[0, 1)`. Only determinism per seed matters — virtual timings
    /// never read matrix values.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let unit = ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            -1.0 + 2.0 * unit
        })
    }

    /// Deterministic random *strictly diagonally dominant* square matrix,
    /// safe for non-pivoting Gaussian elimination (the paper's parallel
    /// GE eliminates with the natural pivot row).
    pub fn random_diagonally_dominant(n: usize, seed: u64) -> Matrix {
        let mut m = Matrix::random(n, n, seed);
        for i in 0..n {
            let off_diag: f64 = (0..n).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] = off_diag + 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Sequential matrix multiply, cache-blocked over `i` and `k`.
    ///
    /// The `j` loop stays a full-row axpy and the `k` accumulation order
    /// within each `(i, j)` cell stays strictly ascending, so the result
    /// is bit-equal to the plain ikj triple loop (`multiply_naive` in
    /// the tests) — blocking only improves B-row reuse in cache.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn multiply(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        const BLOCK: usize = 64;
        let mut out = Matrix::zeros(self.rows, other.cols);
        for ib in (0..self.rows).step_by(BLOCK) {
            let i_end = (ib + BLOCK).min(self.rows);
            for kb in (0..self.cols).step_by(BLOCK) {
                let k_end = (kb + BLOCK).min(self.cols);
                for i in ib..i_end {
                    for k in kb..k_end {
                        let a = self[(i, k)];
                        if a == 0.0 {
                            continue;
                        }
                        let brow = other.row(k);
                        let orow = out.row_mut(i);
                        for (o, &b) in orow.iter_mut().zip(brow) {
                            *o += a * b;
                        }
                    }
                }
            }
        }
        out
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length must equal cols");
        (0..self.rows).map(|i| self.row(i).iter().zip(x).map(|(&a, &b)| a * b).sum()).collect()
    }

    /// Max-norm distance to another matrix; `f64::INFINITY` when shapes
    /// differ.
    pub fn max_diff(&self, other: &Matrix) -> f64 {
        if self.rows != other.rows || self.cols != other.cols {
            return f64::INFINITY;
        }
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Residual infinity norm `‖A·x − b‖∞`, the standard solution-quality
/// check for the GE kernels.
pub fn residual_inf_norm(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec(x);
    ax.iter().zip(b).map(|(&l, &r)| (l - r).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_fn_fills_row_major() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.data(), &[0.0, 1.0, 10.0, 11.0]);
        assert_eq!(m.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn index_and_mutate() {
        let mut m = Matrix::zeros(2, 2);
        m[(1, 0)] = 5.0;
        assert_eq!(m[(1, 0)], 5.0);
        m.row_mut(0)[1] = 7.0;
        assert_eq!(m[(0, 1)], 7.0);
    }

    #[test]
    fn multiply_by_identity_is_noop() {
        let a = Matrix::random(4, 4, 42);
        let prod = a.multiply(&Matrix::identity(4));
        assert!(a.max_diff(&prod) < 1e-15);
    }

    #[test]
    fn multiply_matches_hand_example() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.multiply(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn multiply_rectangular() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, 1.0, 1.0]);
        let b = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let c = a.multiply(&b);
        assert_eq!(c.data(), &[7.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn multiply_shape_mismatch_panics() {
        Matrix::zeros(2, 3).multiply(&Matrix::zeros(2, 3));
    }

    /// Plain ikj triple loop: the reference the blocked multiply must
    /// reproduce bit-for-bit.
    fn multiply_naive(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let v = a[(i, k)];
                if v == 0.0 {
                    continue;
                }
                let brow = b.row(k);
                let orow = out.row_mut(i);
                for (o, &x) in orow.iter_mut().zip(brow) {
                    *o += v * x;
                }
            }
        }
        out
    }

    #[test]
    fn blocked_multiply_is_bit_equal_to_naive() {
        // Sizes straddling the 64-wide block boundary, square and
        // rectangular, plus a sparse case exercising the zero-skip.
        for (m, k, n, seed) in
            [(5usize, 7usize, 3usize, 1u64), (64, 64, 64, 2), (65, 130, 67, 3), (96, 33, 128, 4)]
        {
            let a = Matrix::random(m, k, seed);
            let b = Matrix::random(k, n, seed + 100);
            let blocked = a.multiply(&b);
            let naive = multiply_naive(&a, &b);
            assert_eq!(blocked.data(), naive.data(), "mismatch at {m}x{k}x{n}");
        }
        let mut sparse = Matrix::random(70, 70, 9);
        for i in 0..70 {
            for j in 0..70 {
                if (i + j) % 3 != 0 {
                    sparse[(i, j)] = 0.0;
                }
            }
        }
        let b = Matrix::random(70, 70, 10);
        assert_eq!(sparse.multiply(&b).data(), multiply_naive(&sparse, &b).data());
    }

    #[test]
    fn matvec_matches_multiply() {
        let a = Matrix::random(3, 3, 7);
        let x = vec![1.0, -2.0, 0.5];
        let via_mat = a.multiply(&Matrix::from_vec(3, 1, x.clone()));
        let via_vec = a.matvec(&x);
        for i in 0..3 {
            assert!((via_mat[(i, 0)] - via_vec[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn random_is_seeded_deterministic() {
        assert_eq!(Matrix::random(5, 5, 1), Matrix::random(5, 5, 1));
        assert_ne!(Matrix::random(5, 5, 1), Matrix::random(5, 5, 2));
        let draws = Matrix::random(40, 25, 42);
        assert!(draws.data().iter().all(|x| (-1.0..1.0).contains(x)), "draws stay in [-1, 1)");
    }

    #[test]
    fn diagonally_dominant_matrix_really_is() {
        let m = Matrix::random_diagonally_dominant(20, 3);
        for i in 0..20 {
            let off: f64 = (0..20).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            assert!(m[(i, i)].abs() > off, "row {i} not dominant");
        }
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = Matrix::identity(3);
        let x = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(residual_inf_norm(&a, &x, &b), 0.0);
    }

    #[test]
    fn max_diff_detects_shape_mismatch() {
        assert_eq!(Matrix::zeros(2, 2).max_diff(&Matrix::zeros(2, 3)), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "rows × cols")]
    fn from_vec_length_mismatch_panics() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
