//! The dense `f32` tensor value type.

use crate::check::{ShapeError, ShapeErrorKind};
use crate::kernels;
use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, `f32` tensor.
///
/// `Tensor` is a plain value: cloning copies the buffer, and all methods
/// that produce a new tensor allocate. The autograd layer in
/// [`crate::tape`] stores `Tensor`s in its arena; models rarely touch raw
/// tensors outside of parameter initialization and result extraction.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// If `data.len() != shape.numel()`. Use [`Tensor::try_from_vec`]
    /// for a fallible variant.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        match Self::try_from_vec(shape, data) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Tensor::from_vec`]: returns a typed [`ShapeError`]
    /// when the buffer does not fill the shape.
    pub fn try_from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self, ShapeError> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(ShapeError::new(
                "from_vec",
                ShapeErrorKind::Arity,
                format!("data length {} does not match shape {shape}", data.len()),
            ));
        }
        Ok(Tensor { shape, data })
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![0.0; n] }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        Tensor { shape, data: vec![value; n] }
    }

    /// A rank-0 tensor holding one value.
    pub fn scalar(value: f32) -> Self {
        Tensor { shape: Shape::scalar(), data: vec![value] }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Frees the data buffer and keeps the shape: for a tape value no
    /// backward rule will read again.
    pub(crate) fn release(&mut self) {
        self.data = Vec::new();
    }

    /// The flat data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat data buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// The single value of a scalar (or 1-element) tensor.
    ///
    /// # Panics
    /// If the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on tensor of shape {}", self.shape);
        self.data[0]
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Borrowed row `i` of a rank-2 tensor.
    ///
    /// # Panics
    /// If not rank-2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        let (rows, cols) = self.shape.as_matrix();
        assert!(i < rows, "row {i} out of bounds for {}", self.shape);
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Mutable row `i` of a rank-2 tensor.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        let (rows, cols) = self.shape.as_matrix();
        assert!(i < rows, "row {i} out of bounds for [{rows}, {cols}]");
        &mut self.data[i * cols..(i + 1) * cols]
    }

    /// Reinterprets the buffer under a new shape with the same `numel`.
    ///
    /// # Panics
    /// If the element counts differ. Use [`Tensor::try_reshape`] for a
    /// fallible variant.
    pub fn reshape(self, shape: impl Into<Shape>) -> Self {
        match self.try_reshape(shape) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Tensor::reshape`]: returns a typed [`ShapeError`]
    /// when the element counts differ.
    pub fn try_reshape(mut self, shape: impl Into<Shape>) -> Result<Self, ShapeError> {
        let shape = shape.into();
        if shape.numel() != self.data.len() {
            return Err(ShapeError::new(
                "reshape",
                ShapeErrorKind::Mismatch,
                format!("cannot reshape {} elements to {shape}", self.data.len()),
            ));
        }
        self.shape = shape;
        Ok(self)
    }

    /// Elementwise sum: `self + other`.
    ///
    /// # Panics
    /// If the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "add");
        let mut out = vec![0.0; self.data.len()];
        kernels::add(&self.data, &other.data, &mut out);
        Tensor { shape: self.shape.clone(), data: out }
    }

    /// Elementwise product: `self * other`.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.assert_same_shape(other, "mul");
        let mut out = vec![0.0; self.data.len()];
        kernels::mul(&self.data, &other.data, &mut out);
        Tensor { shape: self.shape.clone(), data: out }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        let data = self.data.iter().map(|&x| x * s).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// Applies `f` elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data.iter().map(|&x| f(x)).collect();
        Tensor { shape: self.shape.clone(), data }
    }

    /// Matrix product of two rank-2 tensors.
    ///
    /// # Panics
    /// If either operand is not rank-2 or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k) = self.shape.as_matrix();
        let (k2, n) = other.shape.as_matrix();
        assert_eq!(k, k2, "matmul inner dims: {} vs {}", self.shape, other.shape);
        let mut out = vec![0.0; m * n];
        kernels::matmul(&self.data, &other.data, &mut out, m, k, n);
        Tensor { shape: Shape::new(vec![m, n]), data: out }
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose(&self) -> Tensor {
        let (m, n) = self.shape.as_matrix();
        let mut out = vec![0.0; m * n];
        kernels::transpose(&self.data, &mut out, m, n);
        Tensor { shape: Shape::new(vec![n, m]), data: out }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// L2 norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        kernels::norm_sq(&self.data).sqrt()
    }

    /// Maximum element (NaN-ignoring); `None` for empty tensors.
    pub fn max(&self) -> Option<f32> {
        self.data
            .iter()
            .copied()
            .filter(|x| !x.is_nan())
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f32| a.max(x))))
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Stacks rank-1 tensors of equal length into a rank-2 tensor.
    ///
    /// # Panics
    /// If `rows` is empty or the lengths differ. Use
    /// [`Tensor::try_stack_rows`] for a fallible variant.
    pub fn stack_rows(rows: &[&[f32]]) -> Tensor {
        match Self::try_stack_rows(rows) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Tensor::stack_rows`]: returns a typed [`ShapeError`]
    /// on an empty input or ragged rows.
    pub fn try_stack_rows(rows: &[&[f32]]) -> Result<Tensor, ShapeError> {
        let Some(first) = rows.first() else {
            return Err(ShapeError::new(
                "stack_rows",
                ShapeErrorKind::Arity,
                "stack_rows on empty input",
            ));
        };
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(ShapeError::new(
                    "stack_rows",
                    ShapeErrorKind::Mismatch,
                    format!("stack_rows with ragged rows: {cols} vs {}", r.len()),
                ));
            }
            data.extend_from_slice(r);
        }
        Ok(Tensor { shape: Shape::new(vec![rows.len(), cols]), data })
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert!(
            self.shape.same_as(&other.shape),
            "{op}: shape mismatch {} vs {}",
            self.shape,
            other.shape
        );
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{}, {}, .. {} elems]", self.data[0], self.data[1], self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones([2, 2]).sum(), 4.0);
        assert_eq!(Tensor::full([3], 2.5).sum(), 7.5);
        assert_eq!(Tensor::scalar(3.0).item(), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_checked() {
        Tensor::from_vec([2, 2], vec![1.0; 3]);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]);
        let b = Tensor::from_vec([2], vec![3.0, 4.0]);
        assert_eq!(a.add(&b).data(), &[4.0, 6.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 8.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let id = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn rows_and_indexing() {
        let mut a = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect());
        assert_eq!(a.row(1), &[3.0, 4.0, 5.0]);
        assert_eq!(a.at(&[1, 2]), 5.0);
        a.set(&[0, 0], 9.0);
        assert_eq!(a.at(&[0, 0]), 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect());
        let b = a.clone().reshape([3, 2]);
        assert_eq!(b.data(), a.data());
        assert_eq!(b.shape().dims(), &[3, 2]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), Some(4.0));
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let t = Tensor::stack_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.shape().dims(), &[2, 2]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn non_finite_detection() {
        let a = Tensor::from_vec([2], vec![1.0, f32::NAN]);
        assert!(a.has_non_finite());
        assert!(!Tensor::ones([2]).has_non_finite());
    }

    #[test]
    fn transpose_matches() {
        let a = Tensor::from_vec([2, 3], (0..6).map(|x| x as f32).collect());
        let t = a.transpose();
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.at(&[2, 1]), a.at(&[1, 2]));
    }
}
