//! The incremental-update protocol between node and Cloud.

use crate::Result;
use insitu_data::Dataset;
use insitu_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A model refresh produced by the Cloud after incremental training on
/// uploaded valuable data.
///
/// An update carries only the trained suffix. The Cloud retrains with
/// the inference network's leading convs frozen, and on the node those
/// are the weights inference and diagnosis share, so the frozen prefix
/// belongs to the deployment: no update ships or moves it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelUpdate {
    /// Monotonically increasing model version.
    pub version: u32,
    /// The inference network's state-dict tensors after its freeze cut,
    /// the whole dict when nothing is frozen: what
    /// [`trained_dict`](insitu_nn::serialize::trained_dict) clones on the
    /// Cloud and [`load_trained`](insitu_nn::serialize::load_trained)
    /// writes on the node.
    pub inference_params: Vec<Tensor>,
    /// Always `None`: the diagnosis network is fixed at deployment, and
    /// a node rejects an update that carries a dict here. The field
    /// stays so that readers which total an update's tensors keep
    /// working.
    pub jigsaw_params: Option<Vec<Tensor>>,
    /// Multiply-accumulate operations the Cloud spent producing this
    /// update (drives the energy/time accounting).
    pub training_ops: u64,
    /// Accuracy on the Cloud's held-out split after this update, when a
    /// holdout is configured (`IncrementalConfig::holdout`).
    pub eval_accuracy: Option<f32>,
}

impl ModelUpdate {
    /// Bytes the update moves on the downlink: 4 B per f32 element of
    /// every tensor it carries.
    pub fn downlink_bytes(&self) -> u64 {
        self.inference_params.iter().map(|t| 4 * t.len() as u64).sum()
    }
}

/// The node's view of the Cloud: something that accepts valuable data
/// and returns a refreshed model. Implemented by
/// `insitu_cloud::Cloud`; test doubles implement it directly.
pub trait CloudEndpoint {
    /// Incrementally trains on `uploaded` and returns the new model.
    ///
    /// # Errors
    ///
    /// Returns an error if training fails (shape disagreements).
    fn incremental_update(&mut self, uploaded: &Dataset) -> Result<ModelUpdate>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_is_cloneable_and_comparable() {
        let u = ModelUpdate {
            version: 1,
            inference_params: vec![Tensor::zeros([2, 2])],
            jigsaw_params: None,
            training_ops: 42,
            eval_accuracy: None,
        };
        assert_eq!(u.clone(), u);
        assert_eq!(u.downlink_bytes(), 16);
    }
}
