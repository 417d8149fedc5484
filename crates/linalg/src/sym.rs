//! Flat symmetric matrix with packed upper-triangular storage.
//!
//! Similarity matrices (Jaccard, SimRank) are symmetric by
//! construction, so storing both triangles as `Vec<Vec<f64>>` wastes half the
//! memory and all of the cache locality. [`SymMatrix`] keeps only the upper
//! triangle in one contiguous buffer: entry `(i, j)` with `i ≤ j` lives at
//! `i·n − i·(i−1)/2 + (j − i)`, i.e. row `i` owns the contiguous slice of its
//! `n − i` entries from the diagonal rightwards, so the fills below walk the
//! buffer once, front to back.

use std::ops::Index;

/// A symmetric `n × n` matrix storing only the packed upper triangle.
///
/// Reads may use any `(i, j)` order — `m[(i, j)] == m[(j, i)]` by
/// construction, since both map to the same packed entry. Writes via
/// [`SymMatrix::set`] therefore keep the matrix exactly symmetric.
#[derive(Debug, Clone, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// All-zero symmetric matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        SymMatrix { n, data: vec![0.0; n * (n + 1) / 2] }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The packed upper-triangular buffer (row-major, diagonal first).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    fn idx(&self, i: usize, j: usize) -> usize {
        let (i, j) = if i <= j { (i, j) } else { (j, i) };
        assert!(j < self.n, "index ({i}, {j}) out of bounds for dimension {}", self.n);
        // Row i starts at Σ_{r<i}(n − r) = i(2n − i + 1)/2.
        i * (2 * self.n - i + 1) / 2 + (j - i)
    }

    /// Write entry `(i, j)`; the mirrored entry `(j, i)` is the same storage,
    /// so symmetry is invariant.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let k = self.idx(i, j);
        self.data[k] = v;
    }

    /// Fill every upper-triangular entry (diagonal included) as
    /// `(i, j) ← f(i, j)`, row by row.
    pub fn fill_upper(&mut self, mut f: impl FnMut(usize, usize) -> f64) {
        self.update_upper(|i, j, _| f(i, j));
    }

    /// Update every upper-triangular entry in place as
    /// `(i, j) ← f(i, j, current)`, row by row.
    pub fn update_upper(&mut self, mut f: impl FnMut(usize, usize, f64) -> f64) {
        let n = self.n;
        let mut slots = self.data.iter_mut();
        for i in 0..n {
            for (j, slot) in (i..n).zip(&mut slots) {
                *slot = f(i, j, *slot);
            }
        }
    }
}

impl Index<(usize, usize)> for SymMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[self.idx(i, j)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_layout_round_trips() {
        let mut m = SymMatrix::zeros(4);
        let mut v = 0.0;
        for i in 0..4 {
            for j in i..4 {
                v += 1.0;
                m.set(i, j, v);
            }
        }
        // Row starts: 0, 4, 7, 9 — buffer length 10.
        assert_eq!(m.data().len(), 10);
        assert_eq!(m[(0, 3)], 4.0);
        assert_eq!(m[(3, 0)], 4.0, "lower triangle mirrors upper");
        assert_eq!(m[(2, 2)], 8.0);
        let row: Vec<f64> = (0..4).map(|j| m[(1, j)]).collect();
        assert_eq!(row, vec![2.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn set_keeps_symmetry_from_either_triangle() {
        let mut m = SymMatrix::zeros(3);
        m.set(2, 0, 7.5);
        assert_eq!(m[(0, 2)], 7.5);
        assert_eq!(m[(2, 0)], 7.5);
    }

    #[test]
    fn fill_upper_writes_what_set_writes() {
        let f = |i: usize, j: usize| (i * 31 + j) as f64 / 7.0;
        let mut filled = SymMatrix::zeros(33);
        filled.fill_upper(f);
        let mut set = SymMatrix::zeros(33);
        for i in 0..33 {
            for j in i..33 {
                set.set(j, i, f(i, j));
            }
        }
        assert_eq!(filled, set);
        filled.update_upper(|i, j, v| if i == j { v } else { -v });
        assert_eq!(filled[(5, 2)], -f(2, 5));
        assert_eq!(filled[(4, 4)], f(4, 4));
    }

    #[test]
    fn empty_matrix() {
        let m = SymMatrix::zeros(0);
        assert_eq!(m.n(), 0);
        assert!(m.data().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let m = SymMatrix::zeros(2);
        let _ = m[(0, 2)];
    }
}
