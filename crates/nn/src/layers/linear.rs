//! Trainable fully connected layer.

use crate::describe::LayerDesc;
use crate::error::NnError;
use crate::layer::{Layer, LayerKind, Mode};
use crate::Result;
use insitu_tensor::{matmul_nt_ws, matmul_tn_ws, matmul_ws, GemmScratch, Rng, Tensor};

/// A fully connected (dense) layer: `y = x·Wᵀ + b`.
///
/// Weight layout is `(out, in)`; initialization is He-normal. The layer
/// owns a [`GemmScratch`] packing arena, so once warmed up its
/// forward/backward GEMMs perform zero kernel-path heap allocations
/// (cloning resets the arena — scratch capacity is not model state).
#[derive(Debug, Clone)]
pub struct Linear {
    name: String,
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    dweight: Tensor,
    dbias: Tensor,
    input_cache: Option<Tensor>,
    scratch: GemmScratch,
}

impl Linear {
    /// Creates a dense layer with He-initialized weights.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        rng: &mut Rng,
    ) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        Linear {
            name: name.into(),
            in_features,
            out_features,
            weight: Tensor::randn([out_features, in_features], 0.0, std, rng),
            bias: Tensor::zeros([out_features]),
            dweight: Tensor::zeros([out_features, in_features]),
            dbias: Tensor::zeros([out_features]),
            input_cache: None,
            scratch: GemmScratch::new(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Read-only view of the weights, `(out, in)`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Read-only view of the bias, `(out,)`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Overwrites weights and bias (used by transfer learning).
    ///
    /// # Errors
    ///
    /// Returns an error if the shapes disagree with this layer.
    pub fn load(&mut self, weight: &Tensor, bias: &Tensor) -> Result<()> {
        self.weight.copy_from(weight).map_err(NnError::from)?;
        self.bias.copy_from(bias).map_err(NnError::from)?;
        Ok(())
    }

    /// Growth count of the layer's packing arena
    /// ([`GemmScratch::reallocations`]).
    pub(crate) fn workspace_reallocations(&self) -> usize {
        self.scratch.reallocations()
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Fc
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let d = input.dims();
        if d.len() != 2 || d[1] != self.in_features {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                expected: vec![0, self.in_features],
                actual: d.to_vec(),
            });
        }
        // y = x · Wᵀ : (B, in) x (out, in)ᵀ = (B, out)
        let mut y = matmul_nt_ws(input, &self.weight, &mut self.scratch)?;
        let b = d[0];
        let ys = y.as_mut_slice();
        let bs = self.bias.as_slice();
        for s in 0..b {
            for o in 0..self.out_features {
                ys[s * self.out_features + o] += bs[o];
            }
        }
        if mode == Mode::Train {
            self.input_cache = Some(input.clone());
        } else {
            self.input_cache = None;
        }
        Ok(y)
    }

    fn backward(&mut self, dout: &Tensor) -> Result<Tensor> {
        let x = self.input_cache.take().ok_or_else(|| NnError::NoForwardCache {
            layer: self.name.clone(),
        })?;
        let d = dout.dims();
        if d.len() != 2 || d[1] != self.out_features || d[0] != x.dims()[0] {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                expected: vec![x.dims()[0], self.out_features],
                actual: d.to_vec(),
            });
        }
        // dW = doutᵀ · x : (B, out)ᵀ x (B, in) = (out, in)
        self.dweight.axpy(1.0, &matmul_tn_ws(dout, &x, &mut self.scratch)?)?;
        // db = column sums of dout
        let (b, o) = (d[0], self.out_features);
        let ds = dout.as_slice();
        let dbs = self.dbias.as_mut_slice();
        for s in 0..b {
            for j in 0..o {
                dbs[j] += ds[s * o + j];
            }
        }
        // dx = dout · W : (B, out) x (out, in) = (B, in)
        Ok(matmul_ws(dout, &self.weight, &mut self.scratch)?)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visitor(&mut self.weight, &mut self.dweight);
        visitor(&mut self.bias, &mut self.dbias);
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn zero_grads(&mut self) {
        self.dweight.fill_zero();
        self.dbias.fill_zero();
    }

    fn describe(&self) -> Option<LayerDesc> {
        Some(LayerDesc::Fc { input: self.in_features, output: self.out_features })
    }

    fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>> {
        if input.len() != 2 || input[1] != self.in_features {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                expected: vec![0, self.in_features],
                actual: input.to_vec(),
            });
        }
        Ok(vec![input[0], self.out_features])
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_manual() {
        let mut rng = Rng::seed_from(1);
        let mut l = Linear::new("fc", 3, 2, &mut rng);
        l.load(
            &Tensor::from_vec([2, 3], vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]).unwrap(),
            &Tensor::from_vec([2], vec![1.0, -1.0]).unwrap(),
        )
        .unwrap();
        let x = Tensor::from_vec([1, 3], vec![2.0, 4.0, 6.0]).unwrap();
        let y = l.forward(&x, Mode::Eval).unwrap();
        // y0 = 2 - 6 + 1 = -3 ; y1 = 1 + 2 + 3 - 1 = 5
        assert_eq!(y.as_slice(), &[-3.0, 5.0]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = Rng::seed_from(2);
        let mut l = Linear::new("fc", 4, 3, &mut rng);
        let x = Tensor::randn([2, 4], 0.0, 1.0, &mut rng);
        let y = l.forward(&x, Mode::Train).unwrap();
        let dout = Tensor::filled(y.shape().clone(), 1.0);
        let dx = l.backward(&dout).unwrap();
        let eps = 1e-2f32;

        // Input gradient.
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (l.forward(&xp, Mode::Eval).unwrap().sum()
                - l.forward(&xm, Mode::Eval).unwrap().sum())
                / (2.0 * eps);
            assert!((num - dx.as_slice()[idx]).abs() < 1e-2);
        }
        // Weight gradient: loss = sum(y), so dW[o][i] = sum_b x[b][i].
        for o in 0..3 {
            for i in 0..4 {
                let expected: f32 = (0..2).map(|b| x.at(&[b, i]).unwrap()).sum();
                let got = l.dweight.at(&[o, i]).unwrap();
                assert!((expected - got).abs() < 1e-4);
            }
        }
        // Bias gradient: batch size.
        assert!(l.dbias.as_slice().iter().all(|&g| (g - 2.0).abs() < 1e-5));
    }

    #[test]
    fn rejects_wrong_width() {
        let mut rng = Rng::seed_from(3);
        let mut l = Linear::new("fc", 4, 3, &mut rng);
        assert!(l.forward(&Tensor::zeros([2, 5]), Mode::Eval).is_err());
        assert!(l.output_shape(&[2, 5]).is_err());
        assert_eq!(l.output_shape(&[7, 4]).unwrap(), vec![7, 3]);
    }

    #[test]
    fn describe_and_params() {
        let mut rng = Rng::seed_from(4);
        let l = Linear::new("fc", 10, 5, &mut rng);
        assert_eq!(l.param_count(), 55);
        assert_eq!(l.describe(), Some(LayerDesc::Fc { input: 10, output: 5 }));
    }
}
