//! Trainable 2-D convolution layer.

use crate::describe::LayerDesc;
use crate::error::NnError;
use crate::layer::{Layer, LayerKind, Mode};
use crate::Result;
use insitu_tensor::{conv2d_backward_ws, conv2d_forward_ws, ConvGeometry, ConvWorkspace, Rng, Tensor};

/// A 2-D convolution with bias, square kernel, uniform stride and zero
/// padding.
///
/// Weight layout is `(M, N, K, K)`; initialization is He-normal
/// (`std = sqrt(2 / fan_in)`), appropriate for the ReLU networks used
/// throughout the reproduction.
///
/// The layer owns a [`ConvWorkspace`], so its input staging, GEMM-packing
/// and gradient scratch buffers are allocated once and reused across
/// steps (zero kernel-path heap allocations in steady state); the
/// forward pass leaves its staged input there for the backward pass. A clone
/// copies parameters and gradients but starts with an empty workspace,
/// so it needs its own Train forward before `backward`.
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    geom: ConvGeometry,
    weight: Tensor,
    bias: Tensor,
    dweight: Tensor,
    dbias: Tensor,
    ws: ConvWorkspace,
    /// True after a Train-mode forward, until consumed by `backward`.
    has_cache: bool,
}

impl Clone for Conv2d {
    fn clone(&self) -> Self {
        Conv2d {
            name: self.name.clone(),
            geom: self.geom,
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            dweight: self.dweight.clone(),
            dbias: self.dbias.clone(),
            ws: ConvWorkspace::new(),
            // The saved columns live in the workspace, which stays behind.
            has_cache: false,
        }
    }
}

impl Conv2d {
    /// Creates a convolution layer with He-initialized weights.
    ///
    /// # Errors
    ///
    /// Returns an error if the geometry is invalid (see
    /// [`ConvGeometry::new`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut Rng,
    ) -> Result<Self> {
        let geom =
            ConvGeometry::new(in_channels, in_h, in_w, out_channels, kernel, stride, pad)?;
        let fan_in = (in_channels * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        Ok(Conv2d {
            name: name.into(),
            geom,
            weight: Tensor::randn([out_channels, in_channels, kernel, kernel], 0.0, std, rng),
            bias: Tensor::zeros([out_channels]),
            dweight: Tensor::zeros([out_channels, in_channels, kernel, kernel]),
            dbias: Tensor::zeros([out_channels]),
            ws: ConvWorkspace::new(),
            has_cache: false,
        })
    }

    /// The layer's convolution geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geom
    }

    /// Read-only view of the weights, `(M, N, K, K)`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Read-only view of the bias, `(M,)`.
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

    /// Growth count of the layer's workspace
    /// ([`ConvWorkspace::reallocations`]).
    pub(crate) fn workspace_reallocations(&self) -> usize {
        self.ws.reallocations()
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Conv
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let out = conv2d_forward_ws(input, &self.weight, &self.bias, &self.geom, &mut self.ws)?;
        self.has_cache = mode == Mode::Train;
        Ok(out)
    }

    fn backward(&mut self, dout: &Tensor) -> Result<Tensor> {
        if !self.has_cache {
            return Err(NnError::NoForwardCache { layer: self.name.clone() });
        }
        self.has_cache = false;
        let (dx, dw, db) = conv2d_backward_ws(dout, &self.weight, &self.geom, &mut self.ws)?;
        self.dweight.axpy(1.0, &dw)?;
        self.dbias.axpy(1.0, &db)?;
        Ok(dx)
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
        Some(LayerDesc::Conv {
            m: self.geom.out_channels,
            n: self.geom.in_channels,
            k: self.geom.kernel,
            r: self.geom.out_h,
            c: self.geom.out_w,
        })
    }

    fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>> {
        if input.len() != 4
            || input[1] != self.geom.in_channels
            || input[2] != self.geom.in_h
            || input[3] != self.geom.in_w
        {
            return Err(NnError::BadInputShape {
                layer: self.name.clone(),
                expected: vec![0, self.geom.in_channels, self.geom.in_h, self.geom.in_w],
                actual: input.to_vec(),
            });
        }
        Ok(vec![input[0], self.geom.out_channels, self.geom.out_h, self.geom.out_w])
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

    fn layer(rng: &mut Rng) -> Conv2d {
        Conv2d::new("c", 2, 6, 6, 3, 3, 1, 1, rng).unwrap()
    }

    #[test]
    fn forward_shape() {
        let mut rng = Rng::seed_from(1);
        let mut l = layer(&mut rng);
        let x = Tensor::randn([4, 2, 6, 6], 0.0, 1.0, &mut rng);
        let y = l.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[4, 3, 6, 6]);
        assert_eq!(l.output_shape(&[4, 2, 6, 6]).unwrap(), vec![4, 3, 6, 6]);
        assert!(l.output_shape(&[4, 3, 6, 6]).is_err());
    }

    #[test]
    fn backward_requires_train_forward() {
        let mut rng = Rng::seed_from(2);
        let mut l = layer(&mut rng);
        let x = Tensor::randn([1, 2, 6, 6], 0.0, 1.0, &mut rng);
        let _ = l.forward(&x, Mode::Eval).unwrap();
        assert!(l.backward(&Tensor::zeros([1, 3, 6, 6])).is_err());
        let _ = l.forward(&x, Mode::Train).unwrap();
        assert!(l.backward(&Tensor::zeros([1, 3, 6, 6])).is_ok());
    }

    #[test]
    fn a_clone_after_a_train_forward_has_no_cache() {
        let mut rng = Rng::seed_from(7);
        let mut l = layer(&mut rng);
        let x = Tensor::randn([1, 2, 6, 6], 0.0, 1.0, &mut rng);
        let _ = l.forward(&x, Mode::Train).unwrap();
        let mut c = l.clone();
        let dout = Tensor::zeros([1, 3, 6, 6]);
        assert!(matches!(c.backward(&dout), Err(NnError::NoForwardCache { .. })));
        assert_eq!(c.weight(), l.weight());
        assert!(l.backward(&dout).is_ok(), "the original keeps its cache");
    }

    #[test]
    fn grads_accumulate_and_zero() {
        let mut rng = Rng::seed_from(3);
        let mut l = layer(&mut rng);
        let x = Tensor::randn([1, 2, 6, 6], 0.0, 1.0, &mut rng);
        let dout = Tensor::filled([1, 3, 6, 6], 1.0);
        let _ = l.forward(&x, Mode::Train).unwrap();
        let _ = l.backward(&dout).unwrap();
        let g1 = l.dweight.clone();
        let _ = l.forward(&x, Mode::Train).unwrap();
        let _ = l.backward(&dout).unwrap();
        // Second backward accumulates: grads doubled.
        let mut doubled = g1.clone();
        doubled.scale(2.0);
        assert!(l.dweight.max_abs_diff(&doubled).unwrap() < 1e-4);
        l.zero_grads();
        assert_eq!(l.dweight.sum(), 0.0);
        assert_eq!(l.dbias.sum(), 0.0);
    }

    #[test]
    fn param_count_and_describe() {
        let mut rng = Rng::seed_from(4);
        let l = layer(&mut rng);
        assert_eq!(l.param_count(), 3 * 2 * 9 + 3);
        match l.describe().unwrap() {
            LayerDesc::Conv { m, n, k, r, c } => {
                assert_eq!((m, n, k, r, c), (3, 2, 3, 6, 6));
            }
            _ => panic!("expected conv desc"),
        }
    }

    #[test]
    fn he_init_scale() {
        let mut rng = Rng::seed_from(5);
        let l = Conv2d::new("c", 16, 8, 8, 64, 3, 1, 1, &mut rng).unwrap();
        let std_expected = (2.0f32 / (16.0 * 9.0)).sqrt();
        let w = l.weight();
        let mean = w.mean();
        let var = w.as_slice().iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>()
            / w.len() as f32;
        assert!(mean.abs() < 0.01);
        assert!((var.sqrt() - std_expected).abs() / std_expected < 0.15);
    }

    #[test]
    fn load_transfers_weights() {
        let mut rng = Rng::seed_from(6);
        let mut a = layer(&mut rng);
        let b = layer(&mut rng);
        assert!(a.weight().max_abs_diff(b.weight()).unwrap() > 0.0);
        a.load(b.weight(), b.bias()).unwrap();
        assert_eq!(a.weight(), b.weight());
        assert!(a.load(&Tensor::zeros([1, 1, 1, 1]), b.bias()).is_err());
    }
}
