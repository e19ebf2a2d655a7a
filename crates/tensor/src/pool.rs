//! Max pooling.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

/// Geometry of a 2-D max-pooling operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolGeometry {
    /// Channels (unchanged by pooling).
    pub channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square window edge.
    pub window: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl PoolGeometry {
    /// Computes output geometry, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the stride is zero or
    /// the window does not fit in the input.
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        window: usize,
        stride: usize,
    ) -> Result<Self> {
        if stride == 0 || window == 0 {
            return Err(TensorError::InvalidGeometry {
                reason: "pool window and stride must be nonzero".into(),
            });
        }
        if window > in_h || window > in_w {
            return Err(TensorError::InvalidGeometry {
                reason: format!("pool window {window} larger than input {in_h}x{in_w}"),
            });
        }
        Ok(PoolGeometry {
            channels,
            in_h,
            in_w,
            window,
            stride,
            out_h: (in_h - window) / stride + 1,
            out_w: (in_w - window) / stride + 1,
        })
    }
}

/// Batched max-pool forward pass.
///
/// * `input`: `(B, C, H, W)`
///
/// Returns the pooled output `(B, C, OH, OW)` and, for each output
/// element, the linear index into `input` of the maximal element — the
/// backward pass routes gradients through those indices.
///
/// # Errors
///
/// Returns an error if `input` does not match the geometry.
pub fn maxpool2d_forward(input: &Tensor, g: &PoolGeometry) -> Result<(Tensor, Vec<usize>)> {
    let d = input.dims();
    if d.len() != 4 || d[1] != g.channels || d[2] != g.in_h || d[3] != g.in_w {
        return Err(TensorError::ShapeMismatch {
            expected: vec![0, g.channels, g.in_h, g.in_w],
            actual: d.to_vec(),
            op: "maxpool2d_forward",
        });
    }
    let b = d[0];
    let mut out = Tensor::zeros([b, g.channels, g.out_h, g.out_w]);
    let mut argmax = vec![0usize; out.len()];
    crate::simd::dispatch(crate::simd::MaxPool2d {
        x: input.as_slice(),
        g: *g,
        planes: b * g.channels,
        out: out.as_mut_slice(),
        argmax: &mut argmax,
    });
    Ok((out, argmax))
}

/// Batched max-pool backward pass: scatters `dout` into the positions
/// recorded by [`maxpool2d_forward`].
///
/// # Errors
///
/// Returns an error if `dout`'s length disagrees with `argmax`.
pub fn maxpool2d_backward(
    dout: &Tensor,
    argmax: &[usize],
    g: &PoolGeometry,
    batch: usize,
) -> Result<Tensor> {
    if dout.len() != argmax.len() {
        return Err(TensorError::LengthMismatch {
            expected: argmax.len(),
            actual: dout.len(),
            op: "maxpool2d_backward",
        });
    }
    let mut dinput = Tensor::zeros([batch, g.channels, g.in_h, g.in_w]);
    let di = dinput.as_mut_slice();
    for (&g_, &i) in dout.as_slice().iter().zip(argmax) {
        di[i] += g_;
    }
    Ok(dinput)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn geometry_validation() {
        assert!(PoolGeometry::new(1, 4, 4, 2, 2).is_ok());
        assert!(PoolGeometry::new(1, 4, 4, 5, 1).is_err());
        assert!(PoolGeometry::new(1, 4, 4, 2, 0).is_err());
    }

    #[test]
    fn known_pooling() {
        let g = PoolGeometry::new(1, 4, 4, 2, 2).unwrap();
        let x = Tensor::from_vec([1, 1, 4, 4], (0..16).map(|i| i as f32).collect()).unwrap();
        let (y, arg) = maxpool2d_forward(&x, &g).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
        assert_eq!(arg, vec![5, 7, 13, 15]);
    }

    #[test]
    fn overlapping_windows() {
        // AlexNet-style 3x3 window stride 2.
        let g = PoolGeometry::new(1, 5, 5, 3, 2).unwrap();
        assert_eq!((g.out_h, g.out_w), (2, 2));
        let x = Tensor::from_vec([1, 1, 5, 5], (0..25).map(|i| i as f32).collect()).unwrap();
        let (y, _) = maxpool2d_forward(&x, &g).unwrap();
        assert_eq!(y.as_slice(), &[12.0, 14.0, 22.0, 24.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let g = PoolGeometry::new(1, 4, 4, 2, 2).unwrap();
        let x = Tensor::from_vec([1, 1, 4, 4], (0..16).map(|i| i as f32).collect()).unwrap();
        let (_, arg) = maxpool2d_forward(&x, &g).unwrap();
        let dout = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let dx = maxpool2d_backward(&dout, &arg, &g, 1).unwrap();
        assert_eq!(dx.at(&[0, 0, 1, 1]).unwrap(), 1.0);
        assert_eq!(dx.at(&[0, 0, 1, 3]).unwrap(), 2.0);
        assert_eq!(dx.at(&[0, 0, 3, 1]).unwrap(), 3.0);
        assert_eq!(dx.at(&[0, 0, 3, 3]).unwrap(), 4.0);
        assert_eq!(dx.sum(), 10.0); // everything routed somewhere, once
    }

    #[test]
    fn gradient_check() {
        let g = PoolGeometry::new(2, 4, 4, 2, 2).unwrap();
        let mut rng = Rng::seed_from(10);
        let x = Tensor::rand_uniform([1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let (y, arg) = maxpool2d_forward(&x, &g).unwrap();
        let dout = Tensor::filled(y.shape().clone(), 1.0);
        let dx = maxpool2d_backward(&dout, &arg, &g, 1).unwrap();
        let eps = 1e-3f32;
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (maxpool2d_forward(&xp, &g).unwrap().0.sum()
                - maxpool2d_forward(&xm, &g).unwrap().0.sum())
                / (2.0 * eps);
            // Tolerate tie-break discontinuities: only check clear cases.
            if (num - dx.as_slice()[idx]).abs() > 0.5 {
                continue;
            }
            assert!((num - dx.as_slice()[idx]).abs() < 1e-2);
        }
    }

    /// The first-strictly-greater chain as plain branches: values and
    /// the absolute input index of each window's maximum.
    fn branchy_pool(x: &[f32], g: &PoolGeometry, planes: usize) -> (Vec<u32>, Vec<usize>) {
        let (mut vals, mut idxs) = (Vec::new(), Vec::new());
        for p in 0..planes {
            for oy in 0..g.out_h {
                for ox in 0..g.out_w {
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, 0);
                    for wy in 0..g.window {
                        for wx in 0..g.window {
                            let i = (p * g.in_h + oy * g.stride + wy) * g.in_w + ox * g.stride + wx;
                            if x[i] > best {
                                best = x[i];
                                best_idx = i;
                            }
                        }
                    }
                    vals.push(best.to_bits());
                    idxs.push(best_idx);
                }
            }
        }
        (vals, idxs)
    }

    #[test]
    fn the_scalar_plane_kernel_matches_a_branchy_chain() {
        // The scalar plane kernel is every ISA's oracle and the path the
        // planes narrower than the vector bodies take, so it is pinned
        // here against the branches written out: NaN never wins, a later
        // equal value (a +0/−0 tie included) never displaces an earlier
        // one, and an all −∞ (or all-NaN) window keeps −∞ at index 0.
        use crate::simd::{dispatch_on, Isa, MaxPool2d};
        let palette = [f32::NAN, f32::NEG_INFINITY, 0.0, -0.0, 1.0, -1.0, 0.5, f32::INFINITY];
        let mut rng = Rng::seed_from(12);
        // (channels, in_h, in_w, window, stride): the trunk's 12-, 6- and
        // 3-wide planes, an overlapping window and a unit stride.
        let geometries =
            [(3, 12, 12, 2, 2), (2, 6, 6, 2, 2), (4, 3, 3, 2, 2), (2, 7, 5, 3, 2), (1, 4, 6, 2, 1)];
        for (c, h, w, win, s) in geometries {
            let g = PoolGeometry::new(c, h, w, win, s).unwrap();
            let planes = 2 * c;
            for fill in 0..3 {
                let x: Vec<f32> = (0..planes * h * w)
                    .map(|_| match fill {
                        0 => palette[rng.below(palette.len())],
                        1 => palette[rng.below(4)], // NaN, −∞ and zeros only
                        _ => f32::NEG_INFINITY,
                    })
                    .collect();
                let mut out = vec![0.0; planes * g.out_h * g.out_w];
                let mut argmax = vec![usize::MAX; out.len()];
                let op = MaxPool2d { x: &x, g, planes, out: &mut out, argmax: &mut argmax };
                dispatch_on(Isa::Scalar, op);
                let got = (out.iter().map(|v| v.to_bits()).collect(), argmax);
                assert_eq!(got, branchy_pool(&x, &g, planes), "{g:?} fill {fill}");
            }
        }
    }

    #[test]
    fn batch_and_channels_independent() {
        let g = PoolGeometry::new(2, 4, 4, 2, 2).unwrap();
        let mut rng = Rng::seed_from(11);
        let x = Tensor::rand_uniform([2, 2, 4, 4], -1.0, 1.0, &mut rng);
        let (y, _) = maxpool2d_forward(&x, &g).unwrap();
        assert_eq!(y.dims(), &[2, 2, 2, 2]);
        // First sample's pooling must not depend on the second sample.
        let x0 = Tensor::from_vec([1, 2, 4, 4], x.as_slice()[..32].to_vec()).unwrap();
        let (y0, _) = maxpool2d_forward(&x0, &g).unwrap();
        assert_eq!(&y.as_slice()[..8], y0.as_slice());
    }
}
