//! The dense `f32` tensor type.

use crate::error::TensorError;
use crate::rng::Rng;
use crate::shape::Shape;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the single numeric container used throughout the
/// reproduction: images, weights, activations and gradients are all
/// tensors. Storage is a contiguous `Vec<f32>`; the rightmost dimension
/// varies fastest.
///
/// # Examples
///
/// ```
/// use insitu_tensor::Tensor;
///
/// # fn main() -> Result<(), insitu_tensor::TensorError> {
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Tensor::filled([2, 2], 1.0);
/// let c = a.add(&b)?;
/// assert_eq!(c.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![0.0; len] }
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let len = shape.len();
        Tensor { shape, data: vec![value; len] }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not
    /// equal the number of elements implied by `shape`.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Result<Self> {
        let shape = shape.into();
        if shape.len() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: data.len(),
                op: "from_vec",
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor whose entries are i.i.d. uniform in `[lo, hi)`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(|_| rng.uniform(lo, hi)).collect();
        Tensor { shape, data }
    }

    /// Creates a tensor whose entries are i.i.d. normal with the given
    /// mean and standard deviation.
    pub fn randn(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut Rng) -> Self {
        let shape = shape.into();
        let data = (0..shape.len()).map(|_| rng.normal_with(mean, std)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension sizes, shorthand for `self.shape().dims()`.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the underlying storage (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.offset(index)?])
    }

    /// Sets the element at a multi-index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for invalid indices.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let off = self.shape.offset(index)?;
        self.data[off] = value;
        Ok(())
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor> {
        let shape = shape.into();
        if shape.len() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.len(),
                actual: self.data.len(),
                op: "reshape",
            });
        }
        Ok(Tensor { shape, data: self.data.clone() })
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        self.check_same_shape(other, "zip_map")?;
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place `self += alpha * other` (saxpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "axpy")?;
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (`NaN` for empty tensors).
    pub fn mean(&self) -> f32 {
        self.sum() / self.data.len() as f32
    }

    /// Maximum element (`None` for empty tensors).
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().fold(None, |m, x| match m {
            None => Some(x),
            Some(m) => Some(m.max(x)),
        })
    }

    /// Index of the maximum element in linear (row-major) order.
    /// Returns `None` for empty tensors. Ties resolve to the first.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &x) in self.data.iter().enumerate() {
            match best {
                Some((_, bx)) if x <= bx => {}
                _ => best = Some((i, x)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Largest absolute difference to another tensor of the same shape.
    /// NaN differences are ignored (`f32::max` returns the non-NaN
    /// operand); infinite differences propagate.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        self.check_same_shape(other, "max_abs_diff")?;
        let diffs = self.data.iter().zip(&other.data).map(|(&x, &y)| (x - y).abs());
        Ok(diffs.fold(0.0, f32::max))
    }

    /// Whether `other` has the same shape and bit-identical elements.
    /// Unlike `==`, which compares elements as f32, this tells `-0.0`
    /// from `0.0` and holds a NaN equal to itself.
    pub fn same_bits(&self, other: &Tensor) -> bool {
        // One OR over the XORed bits, with no early exit, so the loop
        // vectorizes.
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .fold(0u32, |acc, (a, b)| acc | (a.to_bits() ^ b.to_bits()))
                == 0
    }

    /// Copies `other`'s contents into `self` (shapes must match).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn copy_from(&mut self, other: &Tensor) -> Result<()> {
        self.check_same_shape(other, "copy_from")?;
        self.data.copy_from_slice(&other.data);
        Ok(())
    }

    /// Extracts row `i` of a 2-D tensor as a new 1-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the tensor is not 2-D,
    /// or [`TensorError::IndexOutOfBounds`] if `i` is out of range.
    pub fn row(&self, i: usize) -> Result<Tensor> {
        if self.shape.ndim() != 2 {
            return Err(TensorError::InvalidGeometry {
                reason: format!("row() requires a 2-D tensor, got {}", self.shape),
            });
        }
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        if i >= rows {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![i],
                shape: self.shape.dims().to_vec(),
            });
        }
        Ok(Tensor {
            shape: Shape::from([cols]),
            data: self.data[i * cols..(i + 1) * cols].to_vec(),
        })
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the tensor is not 2-D.
    pub fn transpose2d(&self) -> Result<Tensor> {
        if self.shape.ndim() != 2 {
            return Err(TensorError::InvalidGeometry {
                reason: format!("transpose2d() requires a 2-D tensor, got {}", self.shape),
            });
        }
        let (rows, cols) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0; self.data.len()];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor::from_vec([cols, rows], out)
    }

    /// Concatenates 1-D tensors into one 1-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if any input is not 1-D.
    pub fn concat1d(parts: &[&Tensor]) -> Result<Tensor> {
        let mut data = Vec::new();
        for p in parts {
            if p.shape.ndim() != 1 {
                return Err(TensorError::InvalidGeometry {
                    reason: format!("concat1d() requires 1-D tensors, got {}", p.shape),
                });
            }
            data.extend_from_slice(&p.data);
        }
        let len = data.len();
        Tensor::from_vec([len], data)
    }

    fn check_same_shape(&self, other: &Tensor, op: &'static str) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                actual: other.shape.dims().to_vec(),
                op,
            });
        }
        Ok(())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        let preview: Vec<String> = self.data.iter().take(8).map(|x| format!("{x:.4}")).collect();
        write!(f, "[{}{}]", preview.join(", "), if self.data.len() > 8 { ", …" } else { "" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Tensor::filled([3], 2.5);
        assert_eq!(f.as_slice(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec([2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec([2, 2], vec![1.0; 3]),
            Err(TensorError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[5.0; 4]);
        assert_eq!(a.sub(&b).unwrap().as_slice(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[4.0, 6.0, 6.0, 4.0]);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Tensor::zeros([2, 2]);
        let b = Tensor::zeros([4]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::filled([3], 1.0);
        let b = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec([4], vec![1.0, -2.0, 3.0, 0.0]).unwrap();
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max(), Some(3.0));
        assert_eq!(t.argmax(), Some(2));
        assert_eq!(t.norm_sq(), 14.0);
    }

    #[test]
    fn argmax_ties_first() {
        let t = Tensor::from_vec([3], vec![5.0, 5.0, 1.0]).unwrap();
        assert_eq!(t.argmax(), Some(0));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape([7]).is_err());
    }

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros([2, 3, 4]);
        t.set(&[1, 2, 3], 9.0).unwrap();
        assert_eq!(t.at(&[1, 2, 3]).unwrap(), 9.0);
        assert_eq!(t.at(&[0, 0, 0]).unwrap(), 0.0);
        assert!(t.at(&[2, 0, 0]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let tt = t.transpose2d().unwrap();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.at(&[0, 1]).unwrap(), 4.0);
        assert_eq!(tt.transpose2d().unwrap(), t);
    }

    #[test]
    fn row_extraction() {
        let t = Tensor::from_vec([2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(t.row(1).unwrap().as_slice(), &[4.0, 5.0, 6.0]);
        assert!(t.row(2).is_err());
        assert!(Tensor::zeros([4]).row(0).is_err());
    }

    #[test]
    fn concat1d_works() {
        let a = Tensor::from_vec([2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec([3], vec![3.0, 4.0, 5.0]).unwrap();
        let c = Tensor::concat1d(&[&a, &b]).unwrap();
        assert_eq!(c.dims(), &[5]);
        assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(Tensor::concat1d(&[&Tensor::zeros([2, 2])]).is_err());
    }

    #[test]
    fn random_constructors_in_range() {
        let mut rng = Rng::seed_from(1);
        let u = Tensor::rand_uniform([100], -1.0, 1.0, &mut rng);
        assert!(u.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
        let n = Tensor::randn([2000], 0.0, 0.1, &mut rng);
        assert!(n.mean().abs() < 0.02);
    }

    #[test]
    fn max_abs_diff_measures_distance() {
        let a = Tensor::from_vec([2], vec![1.0, 5.0]).unwrap();
        let b = Tensor::from_vec([2], vec![1.5, 4.0]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
    }

    #[test]
    fn same_bits_compares_bits_not_values() {
        let a = Tensor::from_vec([2], vec![0.0, f32::NAN]).unwrap();
        assert!(a.same_bits(&a.clone()), "a NaN must equal itself");
        assert_ne!(a, a.clone(), "f32 == never equates NaNs");
        let flipped = Tensor::from_vec([2], vec![-0.0, f32::NAN]).unwrap();
        assert!(!a.same_bits(&flipped), "-0.0 and 0.0 differ in bits");
        assert!(!a.same_bits(&a.reshape([1, 2]).unwrap()), "shapes must match");
    }

    #[test]
    fn display_nonempty() {
        let t = Tensor::zeros([2, 2]);
        assert!(!format!("{t}").is_empty());
        let big = Tensor::zeros([100]);
        assert!(format!("{big}").contains('…'));
    }
}
