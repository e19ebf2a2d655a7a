//! Post-training i8 quantization of an inference network.
//!
//! [`QuantizedNet::calibrate`] walks a trained [`Sequential`] once over
//! a held-out calibration split, recording the absolute-max of every
//! quantizable layer's *input* (the standard static min/max method —
//! symmetric scheme, so only the magnitude matters). Conv2d and Linear
//! layers become fixed-point layers running the i8 GEMM/conv kernels
//! from `insitu-tensor` (per-tensor activation scale, per-row weight
//! scales, i32 accumulation); every other layer (ReLU, pooling,
//! flatten, dropout-in-eval) is cloned as an f32 passthrough — those
//! are cheap, memory-bound ops where quantization buys nothing.
//!
//! A `QuantizedNet` is inference-only: it deliberately does not
//! implement [`Network`](crate::Network), because the fixed-point path
//! has no backward pass (the paper's FPGA PEs are likewise
//! inference/diagnosis engines; incremental training happens in f32 on
//! the cloud).
//!
//! Scales are only valid for the weights they were measured with, so
//! every model update goes through [`QuantizedNet::recalibrate`]. An
//! update carries only the state-dict tensors after the freeze cut
//! ([`Sequential::first_unfrozen`]): the frozen prefix belongs to the
//! deployment, and no update moves it. So the net keeps the cut and the
//! activation at the cut over the calibration images (the images
//! themselves when nothing is frozen), and holds no f32 network of its
//! own: `recalibrate` is handed the updated network, on a node the
//! deployed one right after the update was written into it
//! ([`load_trained`](crate::serialize::load_trained)), and re-walks only
//! its layers from the cut on, starting at that activation. The result
//! is bitwise equal to a fresh `calibrate` of the updated network over
//! the same images, and the fixed-point layers are rewritten in place,
//! so their kernel workspaces stay warm across updates.

use crate::describe::LayerDesc;
use crate::error::NnError;
use crate::layer::{Layer, LayerKind, Mode};
use crate::layers::{Conv2d, Linear};
use crate::net::Sequential;
use crate::Result;
use insitu_tensor::{
    conv2d_forward_i8_ws, linear_forward_i8_ws, max_abs, quant_scale, ConvGeometry,
    ConvWorkspace, GemmScratch, QuantizedMatrix, Tensor,
};
use std::ops::Range;

/// Calibration record for one quantized layer, for reports and tests.
#[derive(Debug, Clone)]
pub struct LayerCalibration {
    /// Layer name (e.g. `"conv2"`).
    pub name: String,
    /// Static per-tensor scale of the layer's input activations.
    pub in_scale: f32,
    /// Largest per-row weight scale of the layer.
    pub max_weight_scale: f32,
}

/// One layer of a [`QuantizedNet`]: fixed-point conv/linear, or an f32
/// passthrough clone of the original layer.
#[derive(Debug)]
enum QLayer {
    Conv {
        geom: ConvGeometry,
        qweight: QuantizedMatrix,
        bias: Tensor,
        in_scale: f32,
        // Boxed: the workspace is a bundle of arena Vecs that would
        // otherwise dominate the enum's footprint.
        ws: Box<ConvWorkspace>,
    },
    Linear {
        qweight: QuantizedMatrix,
        bias: Tensor,
        in_scale: f32,
        scratch: GemmScratch,
    },
    Passthrough(Box<dyn Layer>),
}

impl QLayer {
    /// The fixed-point twin of `layer`, or its f32 passthrough clone.
    /// The first calibration walk measures the twin's input scale (and
    /// re-quantizes its weights, as every walk does).
    fn of(layer: &dyn Layer) -> Result<QLayer> {
        let any = layer.as_any();
        Ok(if let Some(conv) = any.downcast_ref::<Conv2d>() {
            let geom = *conv.geometry();
            QLayer::Conv {
                geom,
                qweight: QuantizedMatrix::from_rows(
                    conv.weight().as_slice(),
                    geom.out_channels,
                    geom.col_rows(),
                )?,
                bias: conv.bias().clone(),
                in_scale: 0.0,
                ws: Box::new(ConvWorkspace::new()),
            }
        } else if let Some(lin) = any.downcast_ref::<Linear>() {
            QLayer::Linear {
                qweight: QuantizedMatrix::from_rows(
                    lin.weight().as_slice(),
                    lin.out_features(),
                    lin.in_features(),
                )?,
                bias: lin.bias().clone(),
                in_scale: 0.0,
                scratch: GemmScratch::new(),
            }
        } else {
            QLayer::Passthrough(layer.clone_box())
        })
    }

    /// One step of the calibration walk: re-quantizes a fixed-point
    /// layer from `layer`, its f32 original, and measures its input
    /// scale on `x`, the activation entering it. Passthrough layers
    /// have nothing to calibrate.
    fn calibrate(&mut self, layer: &dyn Layer, x: &Tensor) -> Result<Option<LayerCalibration>> {
        let (qweight, bias, in_scale) = match self {
            QLayer::Conv { qweight, bias, in_scale, .. }
            | QLayer::Linear { qweight, bias, in_scale, .. } => (qweight, bias, in_scale),
            QLayer::Passthrough(_) => return Ok(None),
        };
        let any = layer.as_any();
        let (weight, src_bias) = if let Some(conv) = any.downcast_ref::<Conv2d>() {
            (conv.weight(), conv.bias())
        } else {
            let lin = any.downcast_ref::<Linear>().expect("a fixed-point layer mirrors a Linear");
            (lin.weight(), lin.bias())
        };
        *qweight = QuantizedMatrix::from_rows(weight.as_slice(), qweight.rows(), qweight.cols())?;
        bias.copy_from(src_bias)?;
        *in_scale = quant_scale(max_abs(x.as_slice()));
        Ok(Some(LayerCalibration {
            name: layer.name().to_string(),
            in_scale: *in_scale,
            max_weight_scale: max_abs(qweight.scales()),
        }))
    }
}

/// An inference network quantized to symmetric i8 by post-training
/// calibration. Build with [`QuantizedNet::calibrate`], keep current
/// with [`QuantizedNet::recalibrate`], run with
/// [`QuantizedNet::predict`]. See the module docs for the scheme.
#[derive(Debug)]
pub struct QuantizedNet {
    layers: Vec<QLayer>,
    report: Vec<LayerCalibration>,
    /// The calibrated network's layer shapes and freeze cut, and its
    /// activation at the cut over the calibration images.
    shapes: Vec<(LayerKind, Option<LayerDesc>)>,
    cut: usize,
    at_cut: Tensor,
}

/// Every layer's kind and shape, in order: the architecture
/// [`QuantizedNet::recalibrate`] requires.
fn layer_shapes(net: &Sequential) -> Vec<(LayerKind, Option<LayerDesc>)> {
    (0..net.len()).filter_map(|i| net.layer(i).ok()).map(|l| (l.kind(), l.describe())).collect()
}

impl QuantizedNet {
    /// Calibrates `net` over `calib` (a held-out batch of images,
    /// `(B, C, H, W)`) and quantizes every Conv2d/Linear layer.
    ///
    /// The calibration forward runs on a clone of `net` in `Eval` mode,
    /// so the source network is untouched. The clone's activation at the
    /// freeze cut is kept for [`recalibrate`](QuantizedNet::recalibrate),
    /// and the clone is dropped.
    ///
    /// # Errors
    ///
    /// Returns an error if the calibration batch is empty or does not
    /// flow through the network.
    pub fn calibrate(net: &Sequential, calib: &Tensor) -> Result<QuantizedNet> {
        if calib.is_empty() {
            return Err(NnError::BadInputShape {
                layer: "quantize".to_string(),
                expected: vec![0, 3, 36, 36], // 0 marks a free (but non-empty) batch
                actual: calib.dims().to_vec(),
            });
        }
        let mut walked = net.clone();
        let layers =
            (0..walked.len()).map(|i| QLayer::of(walked.layer(i)?)).collect::<Result<Vec<_>>>()?;
        let (shapes, cut) = (layer_shapes(net), net.first_unfrozen());
        let mut q =
            QuantizedNet { layers, report: Vec::new(), shapes, cut, at_cut: Tensor::zeros([0]) };
        q.at_cut = q.walk_layers(&mut walked, 0..cut, calib.clone())?;
        q.walk_suffix(&mut walked)?;
        Ok(q)
    }

    /// Recalibrates from `net`, the network after a model update, which
    /// must have the calibrated layer shapes and freeze cut. Its prefix
    /// is trusted to be the calibrated one, since no update moves it.
    ///
    /// The walk resumes at the cut from the cached activation through
    /// `net`'s own layers, in `Eval` mode, so their workspaces grow to
    /// the calibration batch. The calibration records, i8 weights, row
    /// scales, biases and input scales are then bitwise those of a fresh
    /// [`calibrate`](QuantizedNet::calibrate) of `net` over the same
    /// images. They are written into the existing layers: every kernel
    /// workspace and passthrough layer survives.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SnapshotMismatch`] if `net` does not have the
    /// calibrated architecture; nothing is written then.
    pub fn recalibrate(&mut self, net: &mut Sequential) -> Result<()> {
        if net.first_unfrozen() != self.cut || layer_shapes(net) != self.shapes {
            let reason = format!("{:?} is not the network the i8 net was calibrated from", net.name());
            return Err(NnError::SnapshotMismatch { reason });
        }
        self.walk_suffix(net)
    }

    /// Re-quantizes and re-measures every fixed-point layer from the cut
    /// on, walking `net` from the cached activation.
    fn walk_suffix(&mut self, net: &mut Sequential) -> Result<()> {
        let kept =
            self.layers[..self.cut].iter().filter(|l| !matches!(l, QLayer::Passthrough(_))).count();
        self.report.truncate(kept);
        self.walk_layers(net, self.cut..self.layers.len(), self.at_cut.clone())?;
        Ok(())
    }

    /// Calibrates `range` of `net`'s layers on `x`, the activation
    /// entering its first layer, and returns the activation leaving its
    /// last.
    fn walk_layers(
        &mut self,
        net: &mut Sequential,
        range: Range<usize>,
        mut x: Tensor,
    ) -> Result<Tensor> {
        for i in range {
            let layer = net.layer_mut(i)?;
            if let Some(record) = self.layers[i].calibrate(layer, &x)? {
                self.report.push(record);
            }
            // forward_owned: in-place layers (ReLU) rewrite x.
            x = layer.forward_owned(x, Mode::Eval)?;
        }
        Ok(x)
    }

    /// Fixed-point inference forward: `(B, C, H, W)` → logits.
    ///
    /// Deterministic at any kernel and thread count (integer
    /// accumulation is exact; all f32 work is element-wise). Steady
    /// state allocates only the per-layer output tensors — the i8
    /// panels and accumulators live in grow-only workspaces.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape does not flow through the
    /// network.
    pub fn predict(&mut self, input: &Tensor) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = match layer {
                QLayer::Conv { geom, qweight, bias, in_scale, ws } => {
                    conv2d_forward_i8_ws(&x, qweight, bias, geom, *in_scale, ws)?
                }
                QLayer::Linear { qweight, bias, in_scale, scratch } => {
                    linear_forward_i8_ws(&x, qweight, bias, *in_scale, scratch)?
                }
                // forward_owned: in-place layers (ReLU) rewrite x
                // instead of allocating.
                QLayer::Passthrough(l) => l.forward_owned(x, Mode::Eval)?,
            };
        }
        Ok(x)
    }

    /// Classification accuracy of the quantized network over a labeled
    /// set, evaluated in chunks of `batch`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape disagreement or an empty set; a tensor
    /// without a sample axis (rank 0) holds no images.
    pub fn accuracy_on(&mut self, images: &Tensor, labels: &[usize], batch: usize) -> Result<f32> {
        let n = images.dims().first().copied().unwrap_or(0);
        if n == 0 || n != labels.len() {
            return Err(NnError::BadLabels {
                reason: format!("{n} images vs {} labels", labels.len()),
            });
        }
        let sample_len = images.len() / n;
        let chunk = batch.max(1);
        let mut dims = images.dims().to_vec();
        let mut correct = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + chunk).min(n);
            dims[0] = end - start;
            let sub = Tensor::from_vec(
                dims.clone(),
                images.as_slice()[start * sample_len..end * sample_len].to_vec(),
            )?;
            let logits = self.predict(&sub)?;
            for (p, &want) in crate::predictions(&logits)?.iter().zip(&labels[start..end]) {
                correct += usize::from(*p == want);
            }
            start = end;
        }
        Ok(correct as f32 / n as f32)
    }

    /// Per-layer calibration records, in network order.
    pub fn calibration(&self) -> &[LayerCalibration] {
        &self.report
    }

    /// Growth counts of every fixed-point layer's kernel workspace, in
    /// layer order. A count that holds across a call means the call
    /// allocated no kernel scratch there (see
    /// [`ConvWorkspace::reallocations`]); a replaced workspace would
    /// restart at 0.
    pub fn workspace_reallocations(&self) -> Vec<usize> {
        self.layers
            .iter()
            .filter_map(|l| match l {
                QLayer::Conv { ws, .. } => Some(ws.reallocations()),
                QLayer::Linear { scratch, .. } => Some(scratch.reallocations()),
                QLayer::Passthrough(_) => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Relu;
    use crate::models::mini_alexnet;
    use crate::serialize::{load_trained, trained_dict};
    use insitu_tensor::{num_threads, set_num_threads, Rng};
    use proptest::prelude::*;

    #[test]
    fn calibrate_quantizes_every_conv_and_linear() {
        let mut rng = Rng::seed_from(31);
        let net = mini_alexnet(4, &mut rng).unwrap();
        let calib = Tensor::rand_uniform([4, 3, 36, 36], 0.0, 1.0, &mut rng);
        let q = QuantizedNet::calibrate(&net, &calib).unwrap();
        // Mini-AlexNet: 5 conv + 3 fc, everything else passes through.
        assert_eq!(q.calibration().len(), 8);
        assert_eq!(q.layers.len(), net.len());
        for rec in q.calibration() {
            assert!(rec.in_scale > 0.0, "{}: degenerate input scale", rec.name);
            assert!(rec.max_weight_scale > 0.0, "{}: degenerate weight scale", rec.name);
        }
    }

    #[test]
    fn accuracy_on_rejects_a_tensor_without_a_sample_axis() {
        let mut rng = Rng::seed_from(32);
        let net = mini_alexnet(4, &mut rng).unwrap();
        let calib = Tensor::rand_uniform([2, 3, 36, 36], 0.0, 1.0, &mut rng);
        let mut q = QuantizedNet::calibrate(&net, &calib).unwrap();
        let got = q.accuracy_on(&Tensor::zeros(Vec::<usize>::new()), &[], 4);
        assert!(matches!(got, Err(NnError::BadLabels { .. })), "{got:?}");
    }

    #[test]
    fn quantized_logits_track_f32_logits() {
        let mut rng = Rng::seed_from(37);
        let mut net = mini_alexnet(4, &mut rng).unwrap();
        let calib = Tensor::rand_uniform([6, 3, 36, 36], 0.0, 1.0, &mut rng);
        let mut q = QuantizedNet::calibrate(&net, &calib).unwrap();
        let x = Tensor::rand_uniform([3, 3, 36, 36], 0.0, 1.0, &mut rng);
        let f32_logits = net.predict(&x).unwrap();
        let i8_logits = q.predict(&x).unwrap();
        assert_eq!(i8_logits.dims(), f32_logits.dims());
        let range = insitu_tensor::max_abs(f32_logits.as_slice()).max(1e-3);
        let err = i8_logits.max_abs_diff(&f32_logits).unwrap();
        assert!(err < 0.15 * range, "quantization error {err} vs logit range {range}");
    }

    #[test]
    fn predict_is_deterministic_and_allocation_stable() {
        let mut rng = Rng::seed_from(41);
        let net = mini_alexnet(4, &mut rng).unwrap();
        let calib = Tensor::rand_uniform([2, 3, 36, 36], 0.0, 1.0, &mut rng);
        let mut q = QuantizedNet::calibrate(&net, &calib).unwrap();
        let x = Tensor::rand_uniform([2, 3, 36, 36], 0.0, 1.0, &mut rng);
        let first = q.predict(&x).unwrap();
        for _ in 0..2 {
            let again = q.predict(&x).unwrap();
            assert_eq!(
                first.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                again.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn empty_calibration_batch_is_rejected() {
        let mut rng = Rng::seed_from(43);
        let net = mini_alexnet(4, &mut rng).unwrap();
        assert!(QuantizedNet::calibrate(&net, &Tensor::zeros([0, 3, 36, 36])).is_err());
    }

    /// Everything a calibration decides, as bits: the records, then
    /// every fixed-point layer's i8 weights, row scales, bias and input
    /// scale.
    type CalibrationBits = (Vec<(String, u32, u32)>, Vec<(Vec<i8>, Vec<u32>, Vec<u32>, u32)>);

    fn calibration_bits(q: &QuantizedNet) -> CalibrationBits {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let records = q
            .report
            .iter()
            .map(|r| (r.name.clone(), r.in_scale.to_bits(), r.max_weight_scale.to_bits()))
            .collect();
        let layers = q
            .layers
            .iter()
            .filter_map(|l| match l {
                QLayer::Conv { qweight, bias, in_scale, .. }
                | QLayer::Linear { qweight, bias, in_scale, .. } => Some((
                    qweight.data().to_vec(),
                    bits(qweight.scales()),
                    bits(bias.as_slice()),
                    in_scale.to_bits(),
                )),
                QLayer::Passthrough(_) => None,
            })
            .collect();
        (records, layers)
    }

    fn output_bits(q: &mut QuantizedNet, x: &Tensor) -> Vec<u32> {
        q.predict(x).unwrap().as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Calibrates a Mini-AlexNet frozen through its `frozen`-th conv,
    /// then applies `updates` updates, each moving every tensor after
    /// the freeze cut: each is loaded into the net, which is then handed
    /// to `recalibrate`, and the result is checked against a fresh
    /// calibration of the same weights. Returns the last recalibrated
    /// logits, for the cross-thread-count pin.
    fn recalibrate_against_fresh(
        seed: u64,
        images: usize,
        frozen: usize,
        updates: usize,
    ) -> Vec<u32> {
        let mut rng = Rng::seed_from(seed);
        let mut net = mini_alexnet(4, &mut rng).unwrap();
        net.freeze_first_convs(frozen).unwrap();
        let calib = Tensor::rand_uniform([images, 3, 36, 36], 0.0, 1.0, &mut rng);
        let probe = Tensor::rand_uniform([3, 3, 36, 36], 0.0, 1.0, &mut rng);
        let mut q = QuantizedNet::calibrate(&net, &calib).unwrap();
        let mut logits = output_bits(&mut q, &probe);
        for update in 0..updates {
            let mut dict = trained_dict(&mut net);
            for t in &mut dict {
                for v in t.as_mut_slice() {
                    *v += rng.uniform(-0.02, 0.02);
                }
            }
            load_trained(&mut net, &dict).unwrap();
            q.recalibrate(&mut net).unwrap();
            let mut fresh = QuantizedNet::calibrate(&net, &calib).unwrap();
            assert_eq!(calibration_bits(&q), calibration_bits(&fresh), "update {update}");
            logits = output_bits(&mut q, &probe);
            assert_eq!(logits, output_bits(&mut fresh, &probe), "update {update}");
        }
        logits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The bitwise gate: after any sequence of updates, each writing
        /// the dict after the freeze cut (conv1–3 frozen, or fewer, down
        /// to none) into the net, `recalibrate` of that net equals a fresh `calibrate` of the same
        /// weights over the same images (records, i8 weights, row scales,
        /// biases, input scales and `predict` bits), for calibration
        /// batches of 1–8 images at 1/2/4 kernel threads, and the thread
        /// count changes nothing.
        #[test]
        fn recalibrate_equals_a_fresh_calibrate(
            seed in 0u64..1000,
            images in 1usize..9,
            frozen in 0usize..4,
            updates in 1usize..4,
        ) {
            // The only test here that sets the global thread count.
            let prev = num_threads();
            let pinned: Vec<Vec<u32>> = [1usize, 2, 4]
                .iter()
                .map(|&threads| {
                    set_num_threads(threads);
                    recalibrate_against_fresh(seed, images, frozen, updates)
                })
                .collect();
            set_num_threads(prev);
            prop_assert!(pinned.iter().all(|p| *p == pinned[0]), "thread count changed the logits");
        }
    }

    #[test]
    fn recalibrate_rejects_another_architecture() {
        let mut rng = Rng::seed_from(47);
        let mut net = mini_alexnet(4, &mut rng).unwrap();
        net.freeze_first_convs(3).unwrap();
        let calib = Tensor::rand_uniform([2, 3, 36, 36], 0.0, 1.0, &mut rng);
        let probe = Tensor::rand_uniform([2, 3, 36, 36], 0.0, 1.0, &mut rng);
        let mut q = QuantizedNet::calibrate(&net, &calib).unwrap();
        let (before, logits) = (calibration_bits(&q), output_bits(&mut q, &probe));
        // Each net holds other weights, so a walk over it would show.
        let frozen = |classes: usize, convs: usize, rng: &mut Rng| {
            let mut other = mini_alexnet(classes, rng).unwrap();
            other.freeze_first_convs(convs).unwrap();
            other
        };
        let other_cut = frozen(4, 2, &mut rng);
        let mut extra_layer = frozen(4, 3, &mut rng);
        extra_layer.push(Relu::new("extra"));
        let other_dims = frozen(5, 3, &mut rng);
        for (what, mut bad) in [
            ("another freeze cut", other_cut),
            ("an extra layer", extra_layer),
            ("a last Linear of other dims", other_dims),
        ] {
            assert!(q.recalibrate(&mut bad).is_err(), "{what}");
            assert_eq!(calibration_bits(&q), before, "{what}");
            assert_eq!(output_bits(&mut q, &probe), logits, "{what}");
        }
    }
}
