//! Sparse symmetric matrix in compressed-sparse-row form.
//!
//! A collapsed communication graph has a few thousand nonzeros where its
//! byte matrix has n² entries (6 034 of 74 k on `spectral_summary`), and the
//! §2.2 kernels touch a matrix only through its rows: the Lanczos matvec
//! adds `xᵢ · rowᵢ` for ascending i, the error profile walks one row at a
//! time. [`SymCsr`] holds just the rows' nonzeros, so a graph becomes the
//! operator without an n² buffer.
//!
//! Every sum over a [`SymCsr`] adds the stored entries in the order the
//! dense loop over the same matrix meets them. The dense loop's extra terms
//! are zeros, and adding a zero to a partial sum that started at `+0.0`
//! moves no bit, so each kernel returns the same bits from either form.

use crate::eigen::symmetric_scale;
use crate::error::{Error, Result};
use crate::matrix::Matrix;

/// A square sparse matrix as row pointers, ascending `u32` columns and `f64`
/// values. The eigensolver reads its rows as its columns, so it must be
/// symmetric: `SymCsr::from_dense` checks that, and
/// [`SymCsr::from_sorted_rows`] leaves it to the caller — a graph's
/// neighbour lists are symmetric by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct SymCsr {
    /// Row `i`'s entries are `cols[row_ptr[i]..row_ptr[i + 1]]`.
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl SymCsr {
    /// Build from `n` rows of `(column, value)` entries, each row strictly
    /// ascending in column. Entries are kept as given, zeros included.
    /// Fails with [`Error::InvalidArg`] for a row count other than `n`, a
    /// column out of range or a row out of order.
    pub fn from_sorted_rows<R>(n: usize, rows: impl IntoIterator<Item = R>) -> Result<Self>
    where
        R: IntoIterator<Item = (u32, f64)>,
    {
        let mut csr =
            SymCsr { row_ptr: Vec::with_capacity(n + 1), cols: Vec::new(), vals: Vec::new() };
        csr.row_ptr.push(0);
        for (i, row) in rows.into_iter().enumerate() {
            let start = csr.cols.len();
            for (j, v) in row {
                let ascending = csr.cols.len() == start || csr.cols.last().is_some_and(|&p| p < j);
                if j as usize >= n || !ascending {
                    return Err(Error::InvalidArg(format!(
                        "row {i}: column {j} is out of range for n = {n} or out of order"
                    )));
                }
                csr.cols.push(j);
                csr.vals.push(v);
            }
            csr.row_ptr.push(csr.cols.len());
        }
        if csr.row_ptr.len() != n + 1 {
            return Err(Error::InvalidArg(format!(
                "{} rows given for an n = {n} operator",
                csr.row_ptr.len() - 1
            )));
        }
        Ok(csr)
    }

    /// The stored form of a dense symmetric matrix: every entry but `+0.0`,
    /// so [`SymCsr::to_dense`] returns `m` bit for bit. Fails as
    /// [`eigen_symmetric`](crate::eigen_symmetric) does for a non-square or
    /// meaningfully asymmetric `m`.
    pub(crate) fn from_dense(m: &Matrix) -> Result<Self> {
        symmetric_scale(m)?;
        let n = m.rows();
        SymCsr::from_sorted_rows(
            n,
            (0..n).map(|i| {
                let row = m.row(i);
                (0..n as u32).zip(row.iter().copied()).filter(|&(_, v)| v.to_bits() != 0)
            }),
        )
    }

    /// Dimension.
    pub(crate) fn n(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Row `i`'s columns (ascending) and values.
    pub(crate) fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        (&self.cols[span.clone()], &self.vals[span])
    }

    /// The dense matrix, zeros filled in.
    pub fn to_dense(&self) -> Matrix {
        let n = self.n();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                m[(i, j as usize)] = v;
            }
        }
        m
    }

    /// Sum of absolute values of all entries, in row-major order —
    /// [`Matrix::abs_sum`]'s bits.
    pub(crate) fn abs_sum(&self) -> f64 {
        self.vals.iter().map(|v| v.abs()).sum()
    }

    /// Frobenius norm, summed in row-major order — [`Matrix::frobenius`]'s
    /// bits.
    pub(crate) fn frobenius(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// `w ← w + M·x`, row by row: row i adds `xᵢ · M[i, j]` to `w[j]` in
    /// ascending j — the dense `axpy(w, xᵢ, rowᵢ)` loop without its zero
    /// terms, so each `w[j]` sums the same products in the same order.
    /// `x` and `w` must both have length n.
    pub(crate) fn mul_add(&self, x: &[f64], w: &mut [f64]) {
        for (i, &xi) in x.iter().enumerate() {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                w[j as usize] += xi * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_round_trip_keeps_every_bit() {
        let m = Matrix::from_rows(vec![
            vec![1.5, 0.0, -2.0],
            vec![0.0, -0.0, 0.25],
            vec![-2.0, 0.25, 0.0],
        ]);
        let a = SymCsr::from_dense(&m).unwrap();
        assert_eq!(a.n(), 3);
        assert_eq!(a.row(1), (&[1u32, 2][..], &[-0.0, 0.25][..]), "-0.0 is stored, +0.0 is not");
        let back = a.to_dense();
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&m));
        assert_eq!(a.abs_sum().to_bits(), m.abs_sum().to_bits());
        assert_eq!(a.frobenius().to_bits(), m.frobenius().to_bits());
    }

    #[test]
    fn rows_must_be_ascending_in_range_and_complete() {
        assert!(SymCsr::from_sorted_rows(2, [vec![(0, 1.0)], vec![(1, 2.0)]]).is_ok());
        assert!(SymCsr::from_sorted_rows(2, [vec![(1, 1.0), (0, 1.0)], vec![]]).is_err());
        assert!(SymCsr::from_sorted_rows(2, [vec![(0, 1.0), (0, 1.0)], vec![]]).is_err());
        assert!(SymCsr::from_sorted_rows(2, [vec![(2, 1.0)], vec![]]).is_err());
        assert!(SymCsr::from_sorted_rows(2, [Vec::new()]).is_err());
        assert!(SymCsr::from_sorted_rows(1, [Vec::new(), Vec::new()]).is_err());
        let empty = SymCsr::from_sorted_rows(0, Vec::<Vec<(u32, f64)>>::new()).unwrap();
        assert_eq!(empty.n(), 0);
        assert!(SymCsr::from_dense(&Matrix::zeros(2, 3)).is_err());
        let asym = Matrix::from_rows(vec![vec![1.0, 2.0], vec![0.0, 1.0]]);
        assert!(matches!(SymCsr::from_dense(&asym), Err(Error::NotSymmetric { .. })));
    }

    #[test]
    fn mul_add_matches_the_dense_row_loop() {
        let m = Matrix::from_rows(vec![
            vec![1.0, 0.0, 1.0, 1.0],
            vec![0.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, -4.5, 0.1],
            vec![1.0, 0.0, 0.1, 2.0],
        ]);
        // ±1e16 make the order of each sum visible in its bits.
        let x = [1e16, -1.1, -1e16, 1.0];
        let mut dense = vec![0.0; 4];
        for (&xi, row) in x.iter().zip(m.data().chunks_exact(4)) {
            for (w, v) in dense.iter_mut().zip(row) {
                *w += xi * v;
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Stored as the dense form converts it, and with the zeros of rows
        // 0 and 3 stored explicitly, as a graph with a zero-byte edge has.
        let with_zeros = SymCsr::from_sorted_rows(
            4,
            [
                vec![(0, 1.0), (1, 0.0), (2, 1.0), (3, 1.0)],
                vec![(0, 0.0)],
                vec![(0, 1.0), (2, -4.5), (3, 0.1)],
                vec![(0, 1.0), (2, 0.1), (3, 2.0)],
            ],
        )
        .unwrap();
        assert_eq!(with_zeros.to_dense(), m);
        for a in [SymCsr::from_dense(&m).unwrap(), with_zeros] {
            let mut sparse = vec![0.0; 4];
            a.mul_add(&x, &mut sparse);
            assert_eq!(bits(&sparse), bits(&dense));
        }
    }
}
