//! Dense row-major `f32` tensor.

use crate::{Result, Shape, TensorError};
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the floating-point workhorse of the reproduction: the float
/// BERT baseline, the quantization calibration path and the reference outputs
/// that the integer engine is checked against are all expressed with it.
///
/// # Examples
///
/// ```
/// use fqbert_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])?;
/// let y = x.transpose2()?;
/// assert_eq!(y.shape().dims(), &[3, 2]);
/// assert_eq!(y.get(&[2, 1])?, 6.0);
/// # Ok::<(), fqbert_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Self {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Self {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Creates a square identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-0 tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self {
            data: vec![value],
            shape: Shape::new(&[]),
        }
    }

    /// Creates a tensor from raw row-major data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if `data.len()` does not
    /// equal the product of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        shape.check_numel(data.len())?;
        Ok(Self { data, shape })
    }

    /// Returns the shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Returns the dimension sizes.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the number of elements.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Returns the rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Returns the underlying data as a flat row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying data as a mutable flat row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying data vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index is invalid.
    pub fn get(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index is invalid.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a new tensor with the same data and a different shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeDataMismatch`] if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        shape.check_numel(self.data.len())?;
        Ok(Self {
            data: self.data.clone(),
            shape,
        })
    }

    /// Interprets the tensor as a 2-D matrix and returns `(rows, cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn as_matrix_dims(&self) -> Result<(usize, usize)> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "as_matrix_dims",
                expected: 2,
                actual: self.rank(),
            });
        }
        Ok((self.shape.dim(0), self.shape.dim(1)))
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn transpose2(&self) -> Result<Self> {
        let (r, c) = self.as_matrix_dims()?;
        let mut out = Self::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Matrix–matrix product of two rank-2 tensors, `self (m×k) · rhs (k×n)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ
    /// or either operand is not rank 2.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Self> {
        if self.rank() != 2 || rhs.rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (rhs.shape.dim(0), rhs.shape.dim(1));
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let mut out = Self::zeros(&[m, n]);
        // i-k-j loop order keeps the innermost accesses contiguous for both
        // the output row and the rhs row, which matters for the larger
        // BERT-base shapes used by the performance experiments.
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o_row = &mut out.data[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[kk * n..(kk + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product where the right-hand side is transposed:
    /// `self (m×k) · rhs (n×k)ᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ.
    pub fn matmul_transposed(&self, rhs: &Tensor) -> Result<Self> {
        if self.rank() != 2 || rhs.rank() != 2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transposed",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (n, k2) = (rhs.shape.dim(0), rhs.shape.dim(1));
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_transposed",
                lhs: self.dims().to_vec(),
                rhs: rhs.dims().to_vec(),
            });
        }
        let mut out = Self::zeros(&[m, n]);
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &rhs.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row.iter()) {
                    acc += a * b;
                }
                out.data[i * n + j] = acc;
            }
        }
        Ok(out)
    }

    /// Returns row `i` of a rank-2 tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of range.
    pub fn row(&self, i: usize) -> &[f32] {
        let (r, c) = self
            .as_matrix_dims()
            .expect("row() requires a rank-2 tensor");
        assert!(i < r, "row index {i} out of bounds for {r} rows");
        &self.data[i * c..(i + 1) * c]
    }

    /// Returns a mutable view of row `i` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let (r, c) = self
            .as_matrix_dims()
            .expect("row_mut() requires a rank-2 tensor");
        assert!(i < r, "row index {i} out of bounds for {r} rows");
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Stacks rank-2 tensors with identical column counts vertically.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if column counts differ, or
    /// [`TensorError::EmptyTensor`] when `parts` is empty.
    pub fn vstack(parts: &[&Tensor]) -> Result<Self> {
        let first = parts.first().ok_or(TensorError::EmptyTensor("vstack"))?;
        let (_, cols) = first.as_matrix_dims()?;
        let mut data = Vec::new();
        let mut rows = 0usize;
        for p in parts {
            let (r, c) = p.as_matrix_dims()?;
            if c != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "vstack",
                    lhs: first.dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
            rows += r;
            data.extend_from_slice(&p.data);
        }
        Tensor::from_vec(data, &[rows, cols])
    }

    /// Concatenates rank-2 tensors with identical row counts horizontally.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if row counts differ, or
    /// [`TensorError::EmptyTensor`] when `parts` is empty.
    pub fn hstack(parts: &[&Tensor]) -> Result<Self> {
        let first = parts.first().ok_or(TensorError::EmptyTensor("hstack"))?;
        let (rows, _) = first.as_matrix_dims()?;
        let mut cols_total = 0usize;
        for p in parts {
            let (r, c) = p.as_matrix_dims()?;
            if r != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "hstack",
                    lhs: first.dims().to_vec(),
                    rhs: p.dims().to_vec(),
                });
            }
            cols_total += c;
        }
        let mut out = Tensor::zeros(&[rows, cols_total]);
        for i in 0..rows {
            let mut off = 0usize;
            for p in parts {
                let c = p.shape.dim(1);
                out.data[i * cols_total + off..i * cols_total + off + c].copy_from_slice(p.row(i));
                off += c;
            }
        }
        Ok(out)
    }

    /// Extracts the column range `[start, end)` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank 2 or the range is invalid.
    pub fn slice_cols(&self, start: usize, end: usize) -> Result<Self> {
        let (rows, cols) = self.as_matrix_dims()?;
        if start > end || end > cols {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![start, end],
                shape: self.dims().to_vec(),
            });
        }
        let width = end - start;
        let mut out = Tensor::zeros(&[rows, width]);
        for i in 0..rows {
            out.data[i * width..(i + 1) * width]
                .copy_from_slice(&self.data[i * cols + start..i * cols + end]);
        }
        Ok(out)
    }

    /// Extracts the row range `[start, end)` of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank 2 or the range is invalid.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Self> {
        let (rows, cols) = self.as_matrix_dims()?;
        if start > end || end > rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![start, end],
                shape: self.dims().to_vec(),
            });
        }
        Tensor::from_vec(
            self.data[start * cols..end * cols].to_vec(),
            &[end - start, cols],
        )
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} {:?}", self.shape, &self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros(&[2, 2]).as_slice().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[3]).as_slice().iter().all(|&x| x == 1.0));
        assert!(Tensor::full(&[4], 2.5).as_slice().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn eye_matmul_is_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn from_vec_rejects_bad_shape() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 2]).is_err());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.get(&[1, 2]).unwrap(), 7.5);
        assert_eq!(t.get(&[0, 0]).unwrap(), 0.0);
        assert!(t.get(&[2, 0]).is_err());
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|x| 0.5 * x as f32).collect(), &[4, 3]).unwrap();
        let direct = a.matmul_transposed(&b).unwrap();
        let reference = a.matmul(&b.transpose2().unwrap()).unwrap();
        assert_eq!(direct, reference);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(a.transpose2().unwrap().transpose2().unwrap(), a);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let b = a.reshape(&[3, 2]).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn vstack_hstack() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]).unwrap();
        let v = Tensor::vstack(&[&a, &b]).unwrap();
        assert_eq!(v.dims(), &[2, 2]);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        let h = Tensor::hstack(&[&a, &b]).unwrap();
        assert_eq!(h.dims(), &[1, 4]);
        assert_eq!(h.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn slice_cols_and_rows() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let c = a.slice_cols(1, 3).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 5.0, 6.0, 9.0, 10.0]);
        let r = a.slice_rows(1, 2).unwrap();
        assert_eq!(r.dims(), &[1, 4]);
        assert_eq!(r.as_slice(), &[4.0, 5.0, 6.0, 7.0]);
        assert!(a.slice_cols(3, 5).is_err());
        assert!(a.slice_rows(2, 5).is_err());
    }

    #[test]
    fn row_accessors() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0, 5.0]);
        let mut b = a.clone();
        b.row_mut(0)[0] = 9.0;
        assert_eq!(b.get(&[0, 0]).unwrap(), 9.0);
    }

    #[test]
    fn scalar_tensor() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.numel(), 1);
        assert_eq!(s.as_slice(), &[3.5]);
    }
}
