//! The owned dense tensor type.

use crate::gemm::gemm;
use crate::shape::{Shape, ShapeError};
use rand::Rng;
use std::fmt;

/// An owned, row-major, dense `f32` tensor.
///
/// `Tensor` is the value type flowing through every layer, optimizer and
/// aggregation rule in the workspace. It is intentionally simple: no views,
/// no broadcasting beyond what the layers need, and all fallible shape logic
/// surfaced through [`ShapeError`].
///
/// ```
/// use fedrlnas_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.len(), 6);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::from(dims);
        let data = vec![0.0; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::from(dims);
        let data = vec![value; shape.len()];
        Tensor { shape, data }
    }

    /// Creates a square identity matrix of extent `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat vector and a shape.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `data.len()` does not equal the product of
    /// `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, ShapeError> {
        let shape = Shape::from(dims);
        if shape.len() != data.len() {
            return Err(ShapeError::new(format!(
                "from_vec: {} elements cannot fill shape {:?}",
                data.len(),
                dims
            )));
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor with elements drawn i.i.d. from `N(0, std^2)`.
    ///
    /// Uses the Box–Muller transform so only `rand`'s uniform sampler is
    /// required.
    pub fn randn<R: Rng + ?Sized>(dims: &[usize], std: f32, rng: &mut R) -> Self {
        let shape = Shape::from(dims);
        let n = shape.len();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { shape, data }
    }

    /// Creates a tensor with elements drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform<R: Rng + ?Sized>(dims: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let shape = Shape::from(dims);
        let data = (0..shape.len()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data, row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data, row-major.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on out-of-bounds indices.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) on out-of-bounds indices.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the element counts differ.
    pub fn reshape(mut self, dims: &[usize]) -> Result<Self, ShapeError> {
        let shape = Shape::from(dims);
        if shape.len() != self.data.len() {
            return Err(ShapeError::new(format!(
                "reshape: cannot view {} elements as {:?}",
                self.data.len(),
                dims
            )));
        }
        self.shape = shape;
        Ok(self)
    }

    /// Element-wise in-place addition: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), ShapeError> {
        self.zip_assign(other, "add", |a, b| a + b)
    }

    /// Element-wise in-place subtraction: `self -= other`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on shape mismatch.
    pub fn sub_assign(&mut self, other: &Tensor) -> Result<(), ShapeError> {
        self.zip_assign(other, "sub", |a, b| a - b)
    }

    /// In-place `self += scale * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on shape mismatch.
    pub fn axpy(&mut self, scale: f32, other: &Tensor) -> Result<(), ShapeError> {
        self.zip_assign(other, "axpy", |a, b| a + scale * b)
    }

    fn zip_assign(
        &mut self,
        other: &Tensor,
        op: &str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<(), ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::mismatch(op, self.dims(), other.dims()));
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, *b);
        }
        Ok(())
    }

    /// Element-wise sum, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on shape mismatch.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        let mut out = self.clone();
        out.add_assign(other)?;
        Ok(out)
    }

    /// Element-wise difference, returning a new tensor.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] on shape mismatch.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        let mut out = self.clone();
        out.sub_assign(other)?;
        Ok(out)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy with every element multiplied by `s`.
    pub fn scaled(&self, s: f32) -> Tensor {
        let mut out = self.clone();
        out.scale(s);
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a copy with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Euclidean (L2) norm of all elements.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest element (`-inf` for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Dot product with another tensor of the same element count.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if element counts differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32, ShapeError> {
        if self.len() != other.len() {
            return Err(ShapeError::mismatch("dot", self.dims(), other.dims()));
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Matrix multiplication for rank-2 tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if either operand is not rank 2 or the inner
    /// dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        if self.shape.rank() != 2 || other.shape.rank() != 2 {
            return Err(ShapeError::mismatch("matmul", self.dims(), other.dims()));
        }
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        if k != k2 {
            return Err(ShapeError::mismatch("matmul", self.dims(), other.dims()));
        }
        let mut out = Tensor::zeros(&[m, n]);
        gemm(m, n, k, &self.data, &other.data, &mut out.data);
        Ok(out)
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Tensor, ShapeError> {
        if self.shape.rank() != 2 {
            return Err(ShapeError::new(format!(
                "transpose: expected rank 2, got shape {}",
                self.shape
            )));
        }
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(out)
    }

    /// Clips the global L2 norm to at most `max_norm`, as used for gradient
    /// clipping; returns the scaling factor applied (1.0 when no clipping).
    pub fn clip_norm(&mut self, max_norm: f32) -> f32 {
        let n = self.norm();
        if n > max_norm && n > 0.0 {
            let s = max_norm / n;
            self.scale(s);
            s
        } else {
            1.0
        }
    }

    /// Returns `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Compact representation: shape plus a preview of the data so Debug
        // output stays readable for large tensors.
        let preview: Vec<f32> = self.data.iter().copied().take(8).collect();
        let ellipsis = if self.data.len() > 8 { ", .." } else { "" };
        write!(f, "Tensor{} {:?}{}", self.shape, preview, ellipsis)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(&[2, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[3]).sum(), 3.0);
        assert_eq!(Tensor::full(&[2], 2.5).sum(), 5.0);
        assert_eq!(Tensor::eye(3).sum(), 3.0);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 2]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 4], &[2, 2]).is_ok());
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[10_000], 2.0, &mut rng);
        assert!(t.mean().abs() < 0.1, "mean {}", t.mean());
        let var = t.as_slice().iter().map(|v| v * v).sum::<f32>() / 10_000.0;
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn elementwise_and_errors() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::full(&[2, 2], 3.0);
        assert_eq!(a.add(&b).unwrap().sum(), 16.0);
        assert_eq!(b.sub(&a).unwrap().sum(), 8.0);
        let c = Tensor::ones(&[3]);
        assert!(a.add(&c).is_err());
        let mut d = a.clone();
        d.axpy(2.0, &b).unwrap();
        assert_eq!(d.sum(), 4.0 + 24.0);
    }

    #[test]
    fn matmul_identity_and_known() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
        let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(a.matmul(&v).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.transpose().unwrap(), a);
    }

    #[test]
    fn clip_norm_scales_down_only() {
        let mut t = Tensor::full(&[4], 2.0); // norm 4
        let s = t.clip_norm(2.0);
        assert!((t.norm() - 2.0).abs() < 1e-5);
        assert!((s - 0.5).abs() < 1e-6);
        let s2 = t.clip_norm(100.0);
        assert_eq!(s2, 1.0);
    }

    #[test]
    fn indexing() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 9.0);
        assert_eq!(t.at(&[1, 2]), 9.0);
        assert_eq!(t.as_slice()[5], 9.0);
    }

    #[test]
    fn reshape_checks_len() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.clone().reshape(&[3, 2]).is_ok());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn debug_not_empty() {
        let t = Tensor::zeros(&[1]);
        assert!(!format!("{t:?}").is_empty());
    }
}
