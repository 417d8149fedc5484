//! Dense row-major matrix.

use crate::error::{Error, Result};
use crate::par::{self, Parallelism};
use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// A dense `rows × cols` matrix of `f64`, row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from nested rows.
    ///
    /// # Panics
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in &rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data; the parallel kernels split it into
    /// disjoint row tiles.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A single row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_with(rhs, Parallelism::serial())
    }

    /// Matrix product `self * rhs`, output rows partitioned over workers.
    ///
    /// Every output row is computed with the same ikj loop as the serial
    /// product, so the result is bit-for-bit identical at any worker count.
    pub fn matmul_with(&self, rhs: &Matrix, parallelism: Parallelism) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(Error::ShapeMismatch {
                op: "matmul",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        if self.rows == 0 || rhs.cols == 0 {
            return Ok(out);
        }
        let cols = rhs.cols;
        let band = par::tile_size(self.rows, parallelism);
        let tasks: Vec<(usize, &mut [f64])> = out
            .data
            .chunks_mut(cols * band)
            .enumerate()
            .map(|(t, chunk)| (t * band, chunk))
            .collect();
        par::for_each_task(parallelism, tasks, |(first_row, chunk)| {
            // ikj loop order per row: streams over rhs rows, cache-friendly.
            for (r, orow) in chunk.chunks_mut(cols).enumerate() {
                let i = first_row + r;
                for k in 0..self.cols {
                    let a = self[(i, k)];
                    if a == 0.0 {
                        continue;
                    }
                    for (o, &b) in orow.iter_mut().zip(rhs.row(k)) {
                        *o += a * b;
                    }
                }
            }
        });
        Ok(out)
    }

    /// Elementwise subtraction `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if (self.rows, self.cols) != (rhs.rows, rhs.cols) {
            return Err(Error::ShapeMismatch {
                op: "sub",
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Sum of absolute values of all entries (entrywise L1 norm).
    pub fn abs_sum(&self) -> f64 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute difference `|self[i,j] - self[j,i]|`; 0 for a
    /// perfectly symmetric matrix. Square matrices only.
    pub(crate) fn max_asymmetry(&self) -> Result<f64> {
        if self.rows != self.cols {
            return Err(Error::InvalidArg(format!(
                "symmetry is defined for square matrices, got {}x{}",
                self.rows, self.cols
            )));
        }
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        Ok(worst)
    }

    /// Check symmetry within `tol` (absolute).
    pub(crate) fn require_symmetric(&self, tol: f64) -> Result<()> {
        let a = self.max_asymmetry()?;
        if a > tol {
            return Err(Error::NotSymmetric { max_asymmetry: a });
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn identity_multiplication() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(vec![vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(vec![vec![58.0, 64.0], vec![139.0, 154.0]]));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(Error::ShapeMismatch { .. })));
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(vec![vec![3.0, -4.0]]);
        assert_eq!(m.abs_sum(), 7.0);
        assert_eq!(m.frobenius(), 5.0);
    }

    #[test]
    fn symmetry_check() {
        let sym = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 5.0]]);
        sym.require_symmetric(1e-12).unwrap();
        let asym = Matrix::from_rows(vec![vec![1.0, 2.0], vec![2.5, 5.0]]);
        assert!(matches!(asym.require_symmetric(1e-12), Err(Error::NotSymmetric { .. })));
        assert!(Matrix::zeros(2, 3).max_asymmetry().is_err());
    }

    #[test]
    fn matmul_with_is_worker_count_invariant() {
        let n = 17;
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 40) as f64 / 16_777_216.0
        };
        let a = Matrix::from_rows((0..n).map(|_| (0..n).map(|_| next()).collect()).collect());
        let b = Matrix::from_rows((0..n).map(|_| (0..n).map(|_| next()).collect()).collect());
        let serial = a.matmul(&b).unwrap();
        for workers in [2, 3, 8] {
            let p = a.matmul_with(&b, Parallelism::new(workers)).unwrap();
            assert_eq!(p, serial, "bitwise equality at {workers} workers");
        }
    }

    #[test]
    fn sub_elementwise() {
        let a = Matrix::from_rows(vec![vec![5.0, 7.0]]);
        let b = Matrix::from_rows(vec![vec![1.0, 2.0]]);
        assert_eq!(a.sub(&b).unwrap(), Matrix::from_rows(vec![vec![4.0, 5.0]]));
        assert!(a.sub(&Matrix::zeros(2, 2)).is_err());
    }
}
