//! Networks: the [`Network`] trait and the [`Sequential`] container.

use crate::describe::NetworkDesc;
use crate::error::NnError;
use crate::layer::{Layer, LayerKind, Mode};
use crate::layers::{Conv2d, Linear};
use crate::Result;
use insitu_tensor::Tensor;

/// A trainable network: the interface the optimizer, trainer and
/// serializer work against. Implemented by [`Sequential`] and by
/// [`JigsawNet`](crate::jigsaw::JigsawNet).
pub trait Network: Send {
    /// Runs the network forward.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Propagates the loss gradient, accumulating parameter gradients.
    ///
    /// # Errors
    ///
    /// Returns an error if no training-mode forward preceded this call.
    fn backward(&mut self, dout: &Tensor) -> Result<Tensor>;

    /// Clears all accumulated gradients.
    fn zero_grads(&mut self);

    /// Visits `(stable-key, parameter, gradient)` for every *trainable*
    /// (non-frozen) parameter. The key is stable across calls while the
    /// freezing pattern is unchanged; optimizers key their state on it.
    fn visit_trainable(&mut self, visitor: &mut dyn FnMut(u64, &mut Tensor, &mut Tensor));

    /// Visits every parameter (frozen or not), for serialization.
    fn visit_all(&mut self, visitor: &mut dyn FnMut(&mut Tensor));

    /// Total scalar parameter count.
    fn param_count(&self) -> usize;

    /// Per-sample multiply-accumulate cost of one training step
    /// (forward + backward), honouring frozen prefixes: frozen layers
    /// are forwarded but never backpropagated.
    fn training_ops_per_sample(&self) -> u64;

    /// Per-sample multiply-accumulate cost of inference.
    fn inference_ops_per_sample(&self) -> u64;
}

/// A feed-forward chain of layers with per-layer freezing.
///
/// Freezing implements the paper's "lock the first *i* CONV layers"
/// experiments (its Fig. 6) and the weight-shared incremental updates:
/// a frozen prefix is executed in evaluation mode during training (no
/// caches, no backward), so fine-tuning a suffix is genuinely cheaper.
///
/// # Examples
///
/// ```
/// use insitu_nn::{Mode, Network, Sequential};
/// use insitu_nn::layers::{Flatten, Linear, Relu};
/// use insitu_tensor::{Rng, Tensor};
///
/// # fn main() -> Result<(), insitu_nn::NnError> {
/// let mut rng = Rng::seed_from(0);
/// let mut net = Sequential::new("mlp");
/// net.push(Flatten::new("flat"));
/// net.push(Linear::new("fc1", 16, 8, &mut rng));
/// net.push(Relu::new("relu1"));
/// net.push(Linear::new("fc2", 8, 4, &mut rng));
/// let x = Tensor::randn([2, 1, 4, 4], 0.0, 1.0, &mut rng);
/// let y = net.forward(&x, Mode::Eval)?;
/// assert_eq!(y.dims(), &[2, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
    frozen: Vec<bool>,
    /// Index of the first layer that participated in the latest
    /// training-mode forward (backward starts here and stops there).
    first_active: usize,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential {
            name: self.name.clone(),
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
            frozen: self.frozen.clone(),
            first_active: self.first_active,
        }
    }
}

impl Sequential {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential { name: name.into(), layers: Vec::new(), frozen: Vec::new(), first_active: 0 }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self.frozen.push(false);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Borrow of layer `i`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchLayer`] if `i` is out of range.
    pub fn layer(&self, i: usize) -> Result<&dyn Layer> {
        self.layers
            .get(i)
            .map(|b| b.as_ref() as &dyn Layer)
            .ok_or_else(|| NnError::NoSuchLayer { layer: format!("index {i}") })
    }

    /// Mutable borrow of layer `i`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchLayer`] if `i` is out of range.
    pub fn layer_mut(&mut self, i: usize) -> Result<&mut (dyn Layer + 'static)> {
        self.layers
            .get_mut(i)
            .map(|b| b.as_mut())
            .ok_or_else(|| NnError::NoSuchLayer { layer: format!("index {i}") })
    }

    /// Layer names in order.
    pub fn layer_names(&self) -> Vec<&str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Indices of the convolutional layers, in order.
    pub fn conv_indices(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kind() == LayerKind::Conv)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of convolutional layers.
    pub fn conv_count(&self) -> usize {
        self.conv_indices().len()
    }

    /// Whether layer `i` is frozen (out-of-range indices read as false).
    pub fn is_frozen(&self, i: usize) -> bool {
        self.frozen.get(i).copied().unwrap_or(false)
    }

    /// Implements the paper's `CONV-i` locking: freezes every layer up
    /// to and including the `n`-th convolutional layer (1-based count;
    /// `n = 0` thaws everything). Intervening activation/pool layers in
    /// the frozen prefix are frozen too (they have no parameters, but
    /// this lets the trainer skip their caches).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchLayer`] if the network has fewer than
    /// `n` convolutional layers.
    pub fn freeze_first_convs(&mut self, n: usize) -> Result<()> {
        let convs = self.conv_indices();
        if n > convs.len() {
            return Err(NnError::NoSuchLayer {
                layer: format!("conv #{n} (network has {})", convs.len()),
            });
        }
        let cutoff = if n == 0 { 0 } else { convs[n - 1] + 1 };
        for i in 0..self.layers.len() {
            self.frozen[i] = i < cutoff;
        }
        Ok(())
    }

    /// Number of frozen layers.
    pub fn frozen_count(&self) -> usize {
        self.frozen.iter().filter(|&&f| f).count()
    }

    /// Analytical description of the compute-relevant layers.
    pub fn describe(&self) -> NetworkDesc {
        NetworkDesc::new(
            self.name.clone(),
            self.layers.iter().filter_map(|l| l.describe()).collect(),
        )
    }

    /// Convenience: evaluation-mode forward.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    pub fn predict(&mut self, input: &Tensor) -> Result<Tensor> {
        self.forward(input, Mode::Eval)
    }

    /// Index of the first non-frozen layer (== `len()` if all frozen).
    pub fn first_unfrozen(&self) -> usize {
        self.frozen.iter().position(|&f| !f).unwrap_or(self.layers.len())
    }

    /// Number of parameter tensors held by the layers before `layer`:
    /// the length of that prefix's slice at the head of a
    /// [`state_dict`](crate::serialize::state_dict).
    pub fn tensors_before(&mut self, layer: usize) -> usize {
        let mut n = 0;
        for l in self.layers.iter_mut().take(layer) {
            l.visit_params(&mut |_, _| n += 1);
        }
        n
    }

    /// Growth counts of every Conv2d's and Linear's kernel workspace, in
    /// layer order. A count that holds across a call means the call
    /// allocated no kernel scratch there (see
    /// [`ConvWorkspace::reallocations`](insitu_tensor::ConvWorkspace::reallocations));
    /// a replaced workspace would restart at 0.
    pub fn workspace_reallocations(&self) -> Vec<usize> {
        self.layers
            .iter()
            .filter_map(|l| {
                let any = l.as_any();
                any.downcast_ref::<Conv2d>()
                    .map(Conv2d::workspace_reallocations)
                    .or_else(|| any.downcast_ref::<Linear>().map(Linear::workspace_reallocations))
            })
            .collect()
    }

    /// Runs only the frozen prefix — the layers before
    /// [`first_unfrozen`](Sequential::first_unfrozen) — in `Eval` mode,
    /// exactly as [`forward`](Network::forward) runs them during
    /// training. The output is deterministic and immutable while the
    /// freezing pattern and the frozen weights are unchanged, which is
    /// what makes it cacheable: feeding it to
    /// [`forward_from`](Sequential::forward_from) at the first unfrozen
    /// layer reproduces the full forward bit for bit.
    ///
    /// # Errors
    ///
    /// Returns an error if the input shape is incompatible.
    pub fn forward_prefix(&mut self, input: &Tensor) -> Result<Tensor> {
        let cut = self.first_unfrozen();
        let mut x = input.clone();
        for layer in self.layers[..cut].iter_mut() {
            x = layer.forward_owned(x, Mode::Eval)?;
        }
        Ok(x)
    }

    /// Resumes a forward pass at layer `start`, consuming a precomputed
    /// activation (normally the output of
    /// [`forward_prefix`](Sequential::forward_prefix) with
    /// `start == first_unfrozen()`). The per-layer mode rule is the one
    /// [`forward`](Network::forward) applies — frozen layers run `Eval`
    /// even while training — and a `Train`-mode call records the
    /// backward stop exactly as the full forward would, so
    /// [`backward`](Network::backward) needs no changes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchLayer`] if `start > len()`, or
    /// [`NnError::NoForwardCache`] for a `Train`-mode call with
    /// `start > first_unfrozen()` (layers in between would be skipped
    /// by backward yet still visited by the optimizer).
    pub fn forward_from(&mut self, start: usize, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if start > self.layers.len() {
            return Err(NnError::NoSuchLayer { layer: format!("index {start}") });
        }
        let first_unfrozen = self.first_unfrozen();
        if mode == Mode::Train && start > first_unfrozen {
            return Err(NnError::NoForwardCache {
                layer: format!(
                    "forward_from({start}) past first unfrozen layer {first_unfrozen}"
                ),
            });
        }
        let mut x = input.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().skip(start) {
            // A frozen prefix never needs backward: run it in Eval mode
            // even while training so no caches are kept.
            let layer_mode = if mode == Mode::Train && i < first_unfrozen {
                Mode::Eval
            } else {
                mode
            };
            // forward_owned lets in-place layers (ReLU) rewrite the
            // intermediate activation instead of allocating a copy.
            x = layer.forward_owned(x, layer_mode)?;
        }
        if mode == Mode::Train {
            self.first_active = first_unfrozen;
        }
        Ok(x)
    }
}

impl Network for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        self.forward_from(0, input, mode)
    }

    fn backward(&mut self, dout: &Tensor) -> Result<Tensor> {
        let stop = self.first_active;
        let mut g = dout.clone();
        for layer in self.layers[stop..].iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    fn visit_trainable(&mut self, visitor: &mut dyn FnMut(u64, &mut Tensor, &mut Tensor)) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            if self.frozen[i] {
                continue;
            }
            let mut param_idx = 0u64;
            layer.visit_params(&mut |p, g| {
                visitor(((i as u64) << 8) | param_idx, p, g);
                param_idx += 1;
            });
        }
    }

    fn visit_all(&mut self, visitor: &mut dyn FnMut(&mut Tensor)) {
        for layer in self.layers.iter_mut() {
            layer.visit_params(&mut |p, _| visitor(p));
        }
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn training_ops_per_sample(&self) -> u64 {
        let first_unfrozen = self.first_unfrozen();
        self.layers
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.describe().map(|d| (i, d)))
            .map(|(i, d)| {
                // Forward always; backward (≈2x forward: dX and dW GEMMs)
                // only for the active suffix.
                if i >= first_unfrozen {
                    3 * d.ops()
                } else {
                    d.ops()
                }
            })
            .sum()
    }

    fn inference_ops_per_sample(&self) -> u64 {
        self.layers.iter().filter_map(|l| l.describe()).map(|d| d.ops()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu};
    use insitu_tensor::Rng;

    fn tiny_cnn(rng: &mut Rng) -> Sequential {
        let mut net = Sequential::new("tiny");
        net.push(Conv2d::new("conv1", 1, 8, 8, 4, 3, 1, 1, rng).unwrap());
        net.push(Relu::new("relu1"));
        net.push(MaxPool2d::new("pool1", 4, 8, 8, 2, 2).unwrap());
        net.push(Conv2d::new("conv2", 4, 4, 4, 6, 3, 1, 1, rng).unwrap());
        net.push(Relu::new("relu2"));
        net.push(Flatten::new("flat"));
        net.push(Linear::new("fc", 6 * 4 * 4, 3, rng));
        net
    }

    #[test]
    fn forward_shapes_chain() {
        let mut rng = Rng::seed_from(1);
        let mut net = tiny_cnn(&mut rng);
        let x = Tensor::randn([2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Eval).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
    }

    #[test]
    fn backward_through_whole_net() {
        let mut rng = Rng::seed_from(2);
        let mut net = tiny_cnn(&mut rng);
        let x = Tensor::randn([2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train).unwrap();
        let dx = net.backward(&Tensor::filled(y.shape().clone(), 1.0)).unwrap();
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn conv_indices_and_freeze() {
        let mut rng = Rng::seed_from(3);
        let mut net = tiny_cnn(&mut rng);
        assert_eq!(net.conv_indices(), vec![0, 3]);
        assert_eq!(net.conv_count(), 2);
        net.freeze_first_convs(1).unwrap();
        assert!(net.is_frozen(0));
        assert!(!net.is_frozen(1)); // relu after conv1 stays active
        net.freeze_first_convs(2).unwrap();
        assert!((0..=3).all(|i| net.is_frozen(i)));
        assert!(!net.is_frozen(4));
        assert!(net.freeze_first_convs(3).is_err());
        net.freeze_first_convs(0).unwrap();
        assert_eq!(net.frozen_count(), 0);
    }

    #[test]
    fn frozen_layers_do_not_train() {
        let mut rng = Rng::seed_from(4);
        let mut net = tiny_cnn(&mut rng);
        net.freeze_first_convs(1).unwrap();
        let mut keys = Vec::new();
        net.visit_trainable(&mut |k, _, _| keys.push(k));
        // conv1 (layer 0) excluded: only conv2 (layer 3) and fc (layer 6).
        assert_eq!(keys.len(), 4); // 2 layers x (weight, bias)
        assert!(keys.iter().all(|&k| (k >> 8) != 0));
    }

    #[test]
    fn frozen_prefix_backward_still_works() {
        let mut rng = Rng::seed_from(5);
        let mut net = tiny_cnn(&mut rng);
        net.freeze_first_convs(1).unwrap();
        let x = Tensor::randn([1, 1, 8, 8], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, Mode::Train).unwrap();
        // Backward must succeed and stop before the frozen prefix.
        let g = net.backward(&Tensor::filled(y.shape().clone(), 1.0)).unwrap();
        // Gradient returned is w.r.t. the first active layer's input:
        // relu1's input, i.e. conv1's output (4 x 8 x 8).
        assert_eq!(g.dims(), &[1, 4, 8, 8]);
    }

    #[test]
    fn training_ops_drop_with_freezing() {
        let mut rng = Rng::seed_from(6);
        let mut net = tiny_cnn(&mut rng);
        let full = net.training_ops_per_sample();
        net.freeze_first_convs(1).unwrap();
        let partial = net.training_ops_per_sample();
        assert!(partial < full);
        assert!(partial >= net.inference_ops_per_sample());
    }

    #[test]
    fn describe_lists_compute_layers() {
        let mut rng = Rng::seed_from(7);
        let net = tiny_cnn(&mut rng);
        let d = net.describe();
        assert_eq!(d.layers.len(), 3); // 2 convs + 1 fc
        assert_eq!(d.conv_layers().len(), 2);
        assert_eq!(d.fc_layers().len(), 1);
    }

    #[test]
    fn empty_network_identity() {
        let mut net = Sequential::new("empty");
        assert!(net.is_empty());
        let x = Tensor::filled([1, 2], 3.0);
        assert_eq!(net.forward(&x, Mode::Eval).unwrap(), x);
        assert_eq!(net.param_count(), 0);
    }

    #[test]
    fn layer_accessors() {
        let mut rng = Rng::seed_from(8);
        let net = tiny_cnn(&mut rng);
        assert_eq!(net.layer(0).unwrap().name(), "conv1");
        assert!(net.layer(99).is_err());
        assert_eq!(net.layer_names()[6], "fc");
    }

    #[test]
    fn prefix_then_suffix_matches_full_forward_bitwise() {
        let mut rng = Rng::seed_from(9);
        let mut net = tiny_cnn(&mut rng);
        net.freeze_first_convs(1).unwrap();
        let cut = net.first_unfrozen();
        assert_eq!(cut, 1); // everything up to and including conv1
        let x = Tensor::randn([3, 1, 8, 8], 0.0, 1.0, &mut rng);
        for mode in [Mode::Eval, Mode::Train] {
            let full = net.forward(&x, mode).unwrap();
            let act = net.forward_prefix(&x).unwrap();
            assert_eq!(act.dims(), &[3, 4, 8, 8]); // conv1's output
            let split = net.forward_from(cut, &act, mode).unwrap();
            assert_eq!(full.as_slice(), split.as_slice(), "{mode:?} split forward diverged");
        }
    }

    #[test]
    fn forward_from_supports_backward() {
        let mut rng = Rng::seed_from(10);
        let mut net = tiny_cnn(&mut rng);
        net.freeze_first_convs(1).unwrap();
        let cut = net.first_unfrozen();
        let x = Tensor::randn([2, 1, 8, 8], 0.0, 1.0, &mut rng);
        let act = net.forward_prefix(&x).unwrap();
        let y = net.forward_from(cut, &act, Mode::Train).unwrap();
        net.backward(&Tensor::filled(y.shape().clone(), 1.0)).unwrap();
        // Train-mode resume past the first unfrozen layer is rejected:
        // the skipped trainable layers would silently take no gradient.
        assert!(net.forward_from(cut + 1, &act, Mode::Train).is_err());
        assert!(net.forward_from(net.len() + 1, &act, Mode::Eval).is_err());
    }

    #[test]
    fn tensors_before_counts_the_state_dict_prefix() {
        let mut net = tiny_cnn(&mut Rng::seed_from(13));
        // conv1 (weight, bias), relu1, pool1, conv2 (weight, bias), ...
        let counts: Vec<usize> = (0..=net.len()).map(|i| net.tensors_before(i)).collect();
        assert_eq!(counts, vec![0, 2, 2, 2, 4, 4, 4, 6]);
        assert_eq!(net.tensors_before(99), 6);
    }

    #[test]
    fn unfrozen_prefix_is_empty() {
        let mut rng = Rng::seed_from(11);
        let mut net = tiny_cnn(&mut rng);
        assert_eq!(net.first_unfrozen(), 0);
        let x = Tensor::randn([2, 1, 8, 8], 0.0, 1.0, &mut rng);
        // With nothing frozen the prefix is the identity.
        assert_eq!(net.forward_prefix(&x).unwrap(), x);
    }
}
